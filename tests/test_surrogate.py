import ctypes
import glob
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy
from scipy.linalg import solve_triangular

from oracle import (
    build_curve,
    candidate_inputs,
    fd_noise_floor,
    features,
    grad_check,
    history_inputs,
    nll_with_grads,
)

from graybo.core import History, Observation, encode, sample_pipeline
from graybo.costmodel import CostPredictor
from graybo.optimizer import TuneConfig, tune
from graybo.rng import substream
from graybo.surrogate import (
    GRAM_BLOCK,
    JITTER_LADDER,
    DeepKernelGP,
    KernelParams,
    PredictorContext,
    SingularKernelError,
    _chol_with_jitter,
    bundled_openblas_threads,
    gram,
    kernel_matrix,
    single_thread_numpy_blas,
    single_thread_scipy_blas,
    solve_lower,
)

N_EPOCHS = 10


@pytest.fixture()
def ctx(small_space, meta_features):
    return PredictorContext.from_space(small_space, meta_features, N_EPOCHS, 1)


def _history(rng, n_pipelines=4, epochs=3):
    h = History()
    for pid in range(n_pipelines):
        cost = 0.0
        for ep in range(1, epochs + 1):
            cost += float(rng.uniform(1.0, 4.0))
            h.append(Observation(pid, ep, float(rng.uniform(0.1, 0.9)), cost))
    return h


def _encodings(space, rng, n_pipelines=4):
    return {pid: encode(sample_pipeline(space, rng), space) for pid in range(n_pipelines)}


# ---------------------------------------------------------------------------
# features


def test_features_deterministic(ctx, small_space):
    gp = DeepKernelGP(ctx, substream(0, "gp"))
    enc = encode(sample_pipeline(small_space, substream(1, "p")), small_space)
    z1 = features(gp, enc, [(1, 0.4), (2, 0.35)], t=3)
    z2 = features(gp, enc, [(1, 0.4), (2, 0.35)], t=3)
    assert np.array_equal(z1, z2)


def test_features_width_32(ctx, small_space):
    gp = DeepKernelGP(ctx, substream(2, "gp"))
    enc = encode(sample_pipeline(small_space, substream(3, "p")), small_space)
    for t in (1, 5, N_EPOCHS):
        assert features(gp, enc, [], t=t).shape == (32,)


def test_features_sensitive_to_curve_perturbation(ctx, small_space):
    failures = 0
    for seed in range(100):
        gp = DeepKernelGP(ctx, substream(seed, "sens"))
        enc = encode(sample_pipeline(small_space, substream(seed, "sp")), small_space)
        base = features(gp, enc, [(1, 0.5), (2, 0.4)], t=3)
        bumped = features(gp, enc, [(1, 0.5), (2, 0.5)], t=3)
        if np.array_equal(base, bumped):
            failures += 1
    assert failures == 0


def test_features_rejects_bad_epoch(ctx, small_space):
    gp = DeepKernelGP(ctx, substream(4, "gp"))
    enc = encode(sample_pipeline(small_space, substream(5, "p")), small_space)
    with pytest.raises(ValueError):
        features(gp, enc, [], t=0)
    with pytest.raises(ValueError):
        features(gp, enc, [], t=N_EPOCHS + 1)


def test_build_curve_places_losses_at_epochs():
    curve = build_curve(6, [(2, 0.5), (4, 0.25)])
    assert list(curve) == [0.0, 0.5, 0.0, 0.25, 0.0, 0.0]
    with pytest.raises(ValueError):
        build_curve(4, [(5, 0.5)])


# ---------------------------------------------------------------------------
# kernel


def test_matern_zero_distance_is_signal_variance():
    k = KernelParams(log_signal_var=math.log(2.5))
    z = np.array([[0.3, -0.2]])
    assert kernel_matrix(z, z, k)[0, 0] == pytest.approx(2.5)


def test_matern_decays_to_zero():
    k = KernelParams()
    val = kernel_matrix(np.zeros((1, 2)), np.array([[1000.0, 0.0]]), k)[0, 0]
    assert val < 1e-6 * k.signal_var


def test_matern_at_unit_distance_closed_form():
    k = KernelParams(log_lengthscale=0.0, log_signal_var=0.0)
    val = kernel_matrix(np.zeros((1, 1)), np.ones((1, 1)), k)[0, 0]
    # extended-precision value of (1 + sqrt5 + 5/3) * exp(-sqrt5)
    assert val == pytest.approx(0.5239941088318203, abs=1e-15)


def test_kernel_matrix_symmetric():
    rng = substream(6, "km")
    Z = rng.standard_normal((20, 5))
    k = KernelParams()
    K = kernel_matrix(Z, Z, k)
    assert np.abs(K - K.T).max() <= 1e-12


@pytest.mark.parametrize("n", [1, GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1, 3 * GRAM_BLOCK + 5])
@pytest.mark.parametrize("scale", [0.05, 1.0])
def test_gram_is_byte_identical_to_kernel_matrix_plus_noise(n, scale):
    rng = substream(n, "gram")
    k = KernelParams(log_lengthscale=0.4, log_signal_var=-0.3, log_noise_var=-2.5)
    Z = rng.standard_normal((n, 32)) * scale
    expected = (kernel_matrix(Z, Z, k) + k.noise_var * np.eye(n)).tobytes()
    assert gram(Z, k, k.noise_var).tobytes() == expected
    # into the leading square of a larger buffer holding stale values; the
    # rest of the buffer is left as it was
    buf = rng.standard_normal((2 * n + 3, 2 * n + 3))
    stale = buf.copy()
    K = gram(Z, k, k.noise_var, out=buf)
    assert np.shares_memory(K, buf)
    assert np.ascontiguousarray(K).tobytes() == expected
    buf[:n, :n] = stale[:n, :n]
    assert np.array_equal(buf, stale)


@pytest.mark.parametrize("n", [1, GRAM_BLOCK - 1, GRAM_BLOCK + 1, 3 * GRAM_BLOCK + 5])
@pytest.mark.parametrize("noise", [0.3, 0.0])
def test_lower_gram_matches_the_full_gram_below_the_diagonal(n, noise):
    rng = substream(n, "lower-gram")
    k = KernelParams(log_lengthscale=0.4, log_signal_var=-0.3)
    Z = rng.standard_normal((n, 32))
    Z[n // 2] = Z[0]  # a repeated row: without noise the factor needs jitter
    full = gram(Z, k, noise)
    buf = rng.standard_normal((n + 7, n + 7))
    stale = buf.copy()
    low = gram(Z, k, noise, out=buf, lower=True)
    assert np.tril(low).tobytes() == np.tril(full).tobytes()
    L_full, jitter_full = _chol_with_jitter(full)
    L_low, jitter_low = _chol_with_jitter(low)
    assert L_low.tobytes() == L_full.tobytes() and jitter_low == jitter_full
    buf[:n, :n] = stale[:n, :n]
    assert np.array_equal(buf, stale)


def test_chol_jitter_ladder_escalates():
    # rank-deficient matrix: plain cholesky fails, jitter succeeds, and the
    # caller's matrix is left as it was
    A = np.ones((4, 4))
    L, jitter = _chol_with_jitter(A)
    assert jitter in JITTER_LADDER and jitter > 0.0
    assert np.array_equal(A, np.ones((4, 4)))
    assert np.array_equal(L, np.linalg.cholesky(A + jitter * np.eye(4)))
    with pytest.raises(SingularKernelError):
        _chol_with_jitter(-np.eye(3))


def test_chol_at_zero_jitter_is_plain_cholesky():
    rng = substream(8, "chol")
    X = rng.standard_normal((40, 45))
    A = X @ X.T + 0.1 * np.eye(40)
    before = A.copy()
    L, jitter = _chol_with_jitter(A)
    assert jitter == 0.0
    assert L.tobytes() == np.linalg.cholesky(A).tobytes()
    assert np.array_equal(A, before)


# ---------------------------------------------------------------------------
# posterior


def test_posterior_interpolates_lone_training_point(ctx):
    gp = DeepKernelGP(ctx, substream(7, "gp"))
    gp.kernel.log_nv.values[...] = math.log(1e-8)
    Z = np.array([[0.4, -1.2, 0.7]])
    post = gp.posterior(Z, np.array([1.0]), Z)
    assert post.mean[0] == pytest.approx(1.0, abs=1e-6)
    assert post.variance[0] <= 1e-6


def test_posterior_empty_training_set_is_prior(ctx):
    gp = DeepKernelGP(ctx, substream(8, "gp"))
    Z = substream(9, "z").standard_normal((4, 3))
    post = gp.posterior(np.zeros((0, 3)), np.zeros(0), Z)
    assert np.all(post.mean == 0.0)
    expected = gp.kernel.signal_var + gp.kernel.noise_var
    assert post.variance == pytest.approx(np.full(4, expected))


def test_posterior_matches_dense_inverse_oracle(ctx):
    rng = substream(10, "oracle")
    for trial in range(5):
        n, t, d = 5, 3, 4
        Ztr = rng.standard_normal((n, d))
        ytr = rng.uniform(0.1, 0.9, n)
        Zte = rng.standard_normal((t, d))
        gp = DeepKernelGP(ctx, substream(trial, "gpo"))
        gp.set_normalization(ytr)
        post = gp.posterior(Ztr, ytr, Zte)
        K = kernel_matrix(Ztr, Ztr, gp.kernel) + gp.kernel.noise_var * np.eye(n)
        Ks = kernel_matrix(Ztr, Zte, gp.kernel)
        Kss = kernel_matrix(Zte, Zte, gp.kernel)
        Kinv = np.linalg.inv(K)
        yn = (ytr - gp.y_mean) / gp.y_std
        mean_ref = gp.y_mean + gp.y_std * (Ks.T @ Kinv @ yn)
        cov_ref = (Kss - Ks.T @ Kinv @ Ks) * gp.y_std**2
        assert np.abs(post.mean - mean_ref).max() <= 1e-8
        assert np.abs(post.cov - cov_ref).max() <= 1e-8


def test_posterior_variance_bounded_at_training_inputs(ctx):
    rng = substream(11, "var")
    gp = DeepKernelGP(ctx, substream(12, "gp"))
    Z = rng.standard_normal((12, 4))
    y = rng.uniform(0.0, 1.0, 12)
    gp.set_normalization(y)
    post = gp.posterior(Z, y, Z)
    bound = (gp.kernel.noise_var + JITTER_LADDER[-1] + 1e-6) * gp.y_std**2
    assert np.all(post.variance <= bound)


def test_posterior_cov_symmetric_nonnegative_diag(ctx):
    rng = substream(13, "sym")
    gp = DeepKernelGP(ctx, substream(14, "gp"))
    Z = rng.standard_normal((8, 4))
    y = rng.uniform(0.0, 1.0, 8)
    Zte = rng.standard_normal((6, 4))
    gp.set_normalization(y)
    post = gp.posterior(Z, y, Zte)
    assert np.abs(post.cov - post.cov.T).max() == 0.0
    assert np.all(post.variance >= 0.0)


# ---------------------------------------------------------------------------
# nll


def test_nll_single_unit_point(ctx):
    gp = DeepKernelGP(ctx, substream(15, "gp"))
    # force k(z,z) + noise = 1 and a normalized target of zero
    gp.kernel.log_sv.values[...] = math.log(0.5)
    gp.kernel.log_nv.values[...] = math.log(0.5 - 1e-8)
    gp.y_mean, gp.y_std = 0.7, 1.0
    val = gp.nll(np.zeros((1, 3)), np.array([0.7]))
    assert val == pytest.approx(0.9189385332046727, abs=1e-9)


def test_nll_matches_dense_log_density(ctx):
    rng = substream(16, "nll")
    gp = DeepKernelGP(ctx, substream(17, "gp"))
    n = 5
    Z = rng.standard_normal((n, 4))
    y = rng.uniform(0.1, 0.9, n)
    gp.set_normalization(y)
    yn = (y - gp.y_mean) / gp.y_std
    A = kernel_matrix(Z, Z, gp.kernel) + gp.kernel.noise_var * np.eye(n)
    ref = 0.5 * yn @ np.linalg.inv(A) @ yn + 0.5 * math.log(np.linalg.det(A)) + 0.5 * n * math.log(2 * math.pi)
    assert gp.nll(Z, y) == pytest.approx(ref, abs=1e-8)


def test_nll_finite_on_duplicated_inputs(ctx):
    gp = DeepKernelGP(ctx, substream(18, "gp"))
    gp.kernel.log_nv.values[...] = math.log(1e-12)
    Z = np.zeros((3, 4))
    y = np.array([0.2, 0.5, 0.8])
    gp.set_normalization(y)
    assert math.isfinite(gp.nll(Z, y))


def test_nll_gradients_match_finite_differences(ctx, small_space):
    rng = substream(19, "grad")
    h = _history(rng, n_pipelines=2, epochs=4)
    encs = _encodings(small_space, rng, 2)
    inputs, y, _ = history_inputs(h, encs, ctx)
    gp = DeepKernelGP(ctx, substream(20, "gp"))
    gp.set_normalization(y)

    def loss_fn():
        return gp.nll(gp.features_batch(inputs), y)

    def grad_fn():
        gp.vector.grad[...] = 0.0
        gp.nll_with_grads(inputs, y)

    floor = fd_noise_floor(loss_fn())
    assert grad_check(gp.params(), loss_fn, grad_fn, noise_floor=floor) <= 1e-4


@pytest.mark.parametrize("n_pipelines, epochs", [(1, 1), (4, 3), (24, 4)])
def test_nll_with_grads_matches_the_plain_kernel_block(ctx, small_space, n_pipelines, epochs):
    rng = substream(n_pipelines, "nll-bytes")
    inputs, y, _ = history_inputs(
        _history(rng, n_pipelines, epochs), _encodings(small_space, rng, n_pipelines), ctx
    )
    gp, ref = (DeepKernelGP(ctx, substream(21, "gp")) for _ in range(2))
    for model in (gp, ref):
        model.set_normalization(y)
        # short enough that K is far from rank one; sv != 1 so its products round
        model.kernel.log_ls.values[...] = -0.7
        model.kernel.log_sv.values[...] = 0.3
    value = gp.nll_with_grads(inputs, y)
    assert np.float64(value).tobytes() == np.float64(nll_with_grads(ref, inputs, y)).tobytes()
    for p, q in zip(gp.params(), ref.params()):
        assert p.grad.tobytes() == q.grad.tobytes(), p.name


def test_forward_only_latents_equal_the_gradient_pass_latents(ctx, small_space):
    rng = substream(22, "forward-only")
    inputs, _, _ = history_inputs(_history(rng, 24, 4), _encodings(small_space, rng, 24), ctx)
    gp = DeepKernelGP(ctx, substream(23, "gp"))
    z, _ = gp.fx.forward(inputs, grad=True)
    assert gp.features_batch(inputs).tobytes() == z.tobytes()
    cp = CostPredictor(ctx, substream(24, "cp"))
    raw, _ = cp.head.forward(cp.fx.forward(inputs, grad=True)[0])
    assert cp.raw_batch(inputs).tobytes() == raw[:, 0].tobytes()


def test_normalization_round_trip(ctx):
    gp = DeepKernelGP(ctx, substream(21, "gp"))
    y = substream(22, "y").uniform(0.0, 1.0, 20)
    gp.set_normalization(y)
    back = gp.normalize(y) * gp.y_std + gp.y_mean
    assert np.abs(back - y).max() <= 1e-12


def test_normalization_degenerate_std_forced_to_one(ctx):
    gp = DeepKernelGP(ctx, substream(23, "gp"))
    gp.set_normalization(np.full(5, 0.4))
    assert gp.y_std == 1.0
    assert gp.y_mean == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# fit


def test_fit_empty_history_is_noop(ctx, small_space):
    gp = DeepKernelGP(ctx, substream(24, "gp"))
    before = [p.values.copy() for p in gp.params()]
    inputs, y, _ = history_inputs(History(), {}, ctx)
    report = gp.fit(inputs, y)
    assert report.steps == 0
    for p, b in zip(gp.params(), before):
        assert np.array_equal(p.values, b)


def test_fit_never_increases_nll(ctx, small_space):
    for seed in range(20):
        rng = substream(seed, "fit")
        h = _history(rng, n_pipelines=3, epochs=3)
        encs = _encodings(small_space, rng, 3)
        inputs, y, _ = history_inputs(h, encs, ctx)
        gp = DeepKernelGP(ctx, substream(seed, "gpf"))
        report = gp.fit(inputs, y, steps=25, lr=1e-3)
        assert report.final <= report.initial + 1e-12


def test_fit_rolls_back_on_divergence(ctx, small_space):
    rng = substream(25, "boom")
    h = _history(rng, n_pipelines=3, epochs=3)
    encs = _encodings(small_space, rng, 3)
    inputs, y, _ = history_inputs(h, encs, ctx)
    gp = DeepKernelGP(ctx, substream(26, "gp"))
    before = [p.values.copy() for p in gp.params()]
    report = gp.fit(inputs, y, steps=40, lr=1e12)
    if report.rolled_back:
        for p, b in zip(gp.params(), before):
            assert np.array_equal(p.values, b)
    else:
        assert report.final <= report.initial + 1e-12


def test_fit_ranks_clearly_separated_pipelines(ctx, small_space):
    hits = 0
    for seed in range(20):
        rng = substream(seed, "rank")
        h = History()
        for ep in range(1, 5):
            h.append(Observation(0, ep, 0.05 / ep, float(ep)))
            h.append(Observation(1, ep, min(1.0, 0.5 / ep), float(ep)))
        encs = _encodings(small_space, rng, 2)
        inputs, y, _ = history_inputs(h, encs, ctx)
        gp = DeepKernelGP(ctx, substream(seed, "gpr"))
        gp.fit(inputs, y, steps=100, lr=1e-4)
        Z_train = gp.features_batch(inputs)
        cand, _ = candidate_inputs([0, 1], h, encs, ctx)
        post = gp.posterior(Z_train, y, gp.features_batch(cand))
        if post.mean[0] < post.mean[1]:
            hits += 1
    assert hits >= 18


def test_fit_keeps_parameters_warm(ctx, small_space):
    rng = substream(27, "warm")
    h = _history(rng, n_pipelines=2, epochs=3)
    encs = _encodings(small_space, rng, 2)
    inputs, y, _ = history_inputs(h, encs, ctx)
    gp = DeepKernelGP(ctx, substream(28, "gp"))
    gp.fit(inputs, y, steps=10, lr=1e-3)
    after_first = [p.values.copy() for p in gp.params()]
    gp.fit(inputs, y, steps=0, lr=1e-3)
    for p, b in zip(gp.params(), after_first):
        assert np.array_equal(p.values, b)


def test_history_inputs_uses_strictly_earlier_epochs(ctx, small_space):
    h = History()
    h.append(Observation(0, 1, 0.9, 1.0))
    h.append(Observation(0, 2, 0.6, 2.0))
    h.append(Observation(0, 3, 0.3, 3.0))
    encs = _encodings(small_space, substream(29, "enc"), 1)
    inputs, y, costs = history_inputs(h, encs, ctx)
    assert list(y) == [0.9, 0.6, 0.3]
    assert list(inputs.curves[0]) == [0.0] * N_EPOCHS
    assert inputs.curves[1][0] == 0.9 and inputs.curves[1][1:].sum() == 0.0
    assert inputs.curves[2][0] == 0.9 and inputs.curves[2][1] == 0.6
    assert list(inputs.epoch) == [1, 2, 3]
    assert list(costs) == [1.0, 2.0, 3.0]


def test_checkpoint_kernel_block_round_trip(ctx):
    gp = DeepKernelGP(ctx, substream(30, "gp"))
    gp.kernel.log_ls.values[...] = 0.7
    payload = gp.kernel_dict()
    gp2 = DeepKernelGP(ctx, substream(31, "gp"))
    gp2.load_kernel_dict(payload)
    assert gp2.kernel.log_ls.values.item() == 0.7
    assert set(payload) == {"log_ls", "log_sv", "log_nv"}


# ---------------------------------------------------------------------------
# triangular solves


def _factor(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n + 3))
    return np.linalg.cholesky(X @ X.T + n * np.eye(n)), rng


def _wide(L, cap, fill):
    """L in the leading square of a (cap x cap) C-ordered buffer."""
    buf = np.full((cap, cap), fill)
    n = L.shape[0]
    buf[:n, :n] = L
    return buf


@pytest.mark.parametrize("n", [1, 7, 96, 300])
@pytest.mark.parametrize("ncols", [None, 5])
@pytest.mark.parametrize("transpose", [False, True])
def test_solve_lower_is_bit_identical_to_solve_triangular(n, ncols, transpose):
    L, rng = _factor(n, n)
    b = rng.standard_normal(n if ncols is None else (n, ncols))
    expected = solve_triangular(L.T, b, lower=False) if transpose else solve_triangular(L, b, lower=True)
    assert np.array_equal(solve_lower(L, b, transpose=transpose), expected)
    buf = _wide(L, 2 * n + 3, 0.0)
    assert np.array_equal(solve_lower(buf[:n], b, transpose=transpose), expected)
    if not transpose:  # the strided-slice call the score cache used to make
        assert np.array_equal(solve_triangular(buf[:n, :n], b, lower=True), expected)
    # only L's triangle is read: NaN everywhere else in the buffer is inert
    nan_buf = _wide(np.tril(L) + np.triu(np.full((n, n), np.nan), 1), 2 * n + 3, np.nan)
    assert np.array_equal(solve_lower(nan_buf[:n], b, transpose=transpose), expected)


def test_solve_lower_zero_pivot_raises():
    L, rng = _factor(5, 0)
    L[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_lower(L, rng.standard_normal(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_lower_rejects_non_finite_rhs(bad):
    L, rng = _factor(5, 1)
    b = rng.standard_normal(5)
    b[3] = bad
    with pytest.raises(ValueError):
        solve_lower(L, b)


def test_chol_with_jitter_rejects_non_finite_factor():
    # cholesky lets a NaN off the diagonal through; the factor check stops it
    A = 2.0 * np.eye(3)
    A[0, 1] = A[1, 0] = np.nan
    with pytest.raises(ValueError):
        _chol_with_jitter(A)


def test_solve_lower_reads_a_wide_buffer_in_place():
    # 512 rows of a 1024-wide factor buffer: a copy of L would take 2 MiB,
    # a solve in place only its O(n) result
    n = 512
    L, rng = _factor(n, 2)
    buf = _wide(L, 2 * n, 0.0)
    b = rng.standard_normal(n)
    solve_lower(buf[:n], b)
    tracemalloc.start()
    try:
        solve_lower(buf[:n], b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * 8


# ---------------------------------------------------------------------------
# BLAS thread policy


def _bundled_openblas(package, pattern):
    """The package's wheel-bundled OpenBLAS, or None (MKL, conda, macOS)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), f"{package.__name__}.libs")
    paths = sorted(glob.glob(os.path.join(libs, pattern)))
    return ctypes.CDLL(paths[0]) if paths else None


SCIPY_BLAS = _bundled_openblas(scipy, "libscipy_openblas-*.so")
needs_scipy_openblas = pytest.mark.skipif(
    SCIPY_BLAS is None or not hasattr(SCIPY_BLAS, "scipy_openblas_get_num_threads"),
    reason="scipy has no bundled OpenBLAS",
)


def _scipy_threads():
    return SCIPY_BLAS.scipy_openblas_get_num_threads()


@needs_scipy_openblas
def test_scipy_blas_runs_on_one_thread_after_import():
    # this module loaded scipy's library itself, after graybo; graybo's
    # first solve sets the pool
    solve_lower(np.eye(1), np.ones(1))
    assert _scipy_threads() == 1


@needs_scipy_openblas
def test_first_solve_loads_scipy_lapack_on_one_thread():
    # a fresh interpreter: importing graybo loads no scipy LAPACK, and the
    # first solve leaves scipy's pool at one thread, not OPENBLAS_NUM_THREADS
    probe = (
        "import sys, numpy, scipy\n"
        "from graybo import surrogate\n"
        "loaded = 'scipy.linalg' in sys.modules\n"
        "surrogate.solve_lower(numpy.eye(2), numpy.ones(2))\n"
        "get, _ = surrogate.bundled_openblas_threads(surrogate._libs_dir(scipy))\n"
        "print(loaded, get())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["False", "1"]


@needs_scipy_openblas
def test_numpy_blas_pool_is_left_alone():
    # a fresh interpreter: numpy's pool size must not change when graybo loads
    probe = (
        "import ctypes, glob, os, numpy\n"
        "libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), 'numpy.libs')\n"
        "paths = glob.glob(os.path.join(libs, 'libscipy_openblas64_*.so'))\n"
        "get = getattr(ctypes.CDLL(paths[0]), 'scipy_openblas_get_num_threads64_', None) if paths else None\n"
        "before = get() if get else -1\n"
        "import graybo.surrogate\n"
        "print(before, get() if get else -1)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    before, after = int(out[0]), int(out[1])
    if before < 0:
        pytest.skip("numpy has no bundled OpenBLAS")
    assert after == before


@needs_scipy_openblas
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_fork_child_inherits_single_thread_scipy_blas():
    solve_lower(np.eye(1), np.ones(1))  # as a forking command loads LAPACK first
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        os.write(write_fd, str(_scipy_threads()).encode())
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        reported = fh.read()
    os.waitpid(pid, 0)
    assert reported == "1"


def test_single_thread_scipy_blas_without_a_library(tmp_path):
    single_thread_scipy_blas(str(tmp_path))
    single_thread_scipy_blas(str(tmp_path / "missing"))


NUMPY_BLAS = _bundled_openblas(np, "libscipy_openblas64_*.so")
needs_numpy_openblas = pytest.mark.skipif(
    NUMPY_BLAS is None or not hasattr(NUMPY_BLAS, "scipy_openblas_get_num_threads64_"),
    reason="numpy has no bundled OpenBLAS",
)


@pytest.fixture()
def numpy_pool_of_two():
    """numpy's pool set to two threads for the test, then put back."""
    before = NUMPY_BLAS.scipy_openblas_get_num_threads64_()
    NUMPY_BLAS.scipy_openblas_set_num_threads64_(2)
    yield NUMPY_BLAS.scipy_openblas_get_num_threads64_
    NUMPY_BLAS.scipy_openblas_set_num_threads64_(before)


def _tiny_tune(tiny_bench, small_space):
    view = tiny_bench.view(tiny_bench.dataset_ids[0])
    cfg = TuneConfig(budget_seconds=1e9, use_meta=False, fit_steps=2, seed=0, max_steps=4)
    return tune(view, small_space, cfg)


@needs_numpy_openblas
def test_tune_runs_numpy_blas_on_one_thread(tiny_bench, small_space, numpy_pool_of_two, monkeypatch):
    seen = []
    fit = DeepKernelGP.fit

    def spy(self, *args, **kwargs):
        seen.append(numpy_pool_of_two())
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(DeepKernelGP, "fit", spy)
    _tiny_tune(tiny_bench, small_space)
    assert seen and set(seen) == {1}
    assert numpy_pool_of_two() == 2


@needs_numpy_openblas
def test_tune_restores_numpy_blas_threads_after_an_exception(
    tiny_bench, small_space, numpy_pool_of_two, monkeypatch
):
    def boom(self, *args, **kwargs):
        raise FloatingPointError("fit failed")

    monkeypatch.setattr(DeepKernelGP, "fit", boom)
    with pytest.raises(FloatingPointError, match="fit failed"):
        _tiny_tune(tiny_bench, small_space)
    assert numpy_pool_of_two() == 2


def test_single_thread_numpy_blas_without_a_library(tmp_path):
    for libs in (tmp_path, tmp_path / "missing"):
        assert bundled_openblas_threads(str(libs)) is None
        with single_thread_numpy_blas(str(libs)):
            pass
