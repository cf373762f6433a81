import json
import math

import numpy as np
import pytest

from graybo.benchtab import DatasetTable, GeneratorConfig, generate
from graybo.costmodel import CostPredictor, log_cost_mse
from graybo.metalearn import (
    FoldSplit,
    _DatasetCache,
    MetaCheckpoint,
    MetaTrainResult,
    meta_train,
    split_folds,
    zero_shot_rank_eval,
)
from graybo.neural import load_into_blocks
from graybo.rng import substream
from graybo.surrogate import PredictorContext

import oracle


@pytest.fixture(scope="module")
def micro_md(small_space):
    cfg = GeneratorConfig(
        n_clusters=2,
        n_datasets=6,
        n_models=3,
        configs_per_dataset=16,
        n_epochs=8,
        obs_noise=0.01,
        cost_base=1.0,
        seed=3,
    )
    return generate(cfg, small_space)


# ---------------------------------------------------------------------------
# meta-train batches


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dt", [1, 2])
def test_cell_batch_equals_per_cell_oracle(micro_md, small_space, dt):
    table = next(iter(micro_md.datasets.values()))
    n_ep = table.n_epochs
    ctx = PredictorContext.from_space(small_space, table.meta, n_ep, dt)
    cache = _DatasetCache(table, small_space, ctx)
    rng = substream(5, "cell-batch", dt)
    pis = rng.integers(table.n_pipelines, size=64)
    eps = rng.integers(1, n_ep + 1, size=64)
    eps[:3] = [1, dt, dt + 1]  # all-zero curves up to epoch dt
    batches = [(pis, eps), (pis[:1], eps[:1]), (pis[1:2], eps[1:2]), (pis[-1:], eps[-1:])]
    for p, e in batches:
        got_inputs, got_y, got_c = cache.cell_batch(p, e)
        want_inputs, want_y, want_c = oracle.cell_batch(table, small_space, ctx, p, e)
        for field in ("hp", "model_onehot", "curves", "epoch", "meta"):
            assert _same_bytes(getattr(got_inputs, field), getattr(want_inputs, field)), field
        assert got_inputs.observed_cost is None
        assert _same_bytes(got_y, want_y) and _same_bytes(got_c, want_c)
    curves = cache.cell_batch(pis[:3], eps[:3])[0].curves
    assert not curves[:2].any()  # epoch <= dt: nothing observed yet
    assert curves[2, :1].all() and not curves[2, 1:].any()


# ---------------------------------------------------------------------------
# folds


def test_split_folds_equal_sizes():
    split = split_folds([f"d{i}" for i in range(30)], k=5, seed=0)
    assert sorted(len(f) for f in split.folds) == [6, 6, 6, 6, 6]


def test_split_folds_remainder():
    split = split_folds([f"d{i}" for i in range(26)], k=5, seed=0)
    assert sorted(len(f) for f in split.folds) == [5, 5, 5, 5, 6]


def test_split_folds_deterministic():
    ids = [f"d{i}" for i in range(17)]
    a = split_folds(ids, k=4, seed=9)
    b = split_folds(ids, k=4, seed=9)
    assert a == b
    c = split_folds(ids, k=4, seed=10)
    assert a != c


def test_split_folds_disjoint_exhaustive():
    ids = [f"d{i}" for i in range(13)]
    split = split_folds(ids, k=4, seed=1)
    flat = [d for fold in split.folds for d in fold]
    assert sorted(flat) == sorted(ids)


def test_split_folds_too_few_datasets():
    with pytest.raises(ValueError):
        split_folds(["a", "b"], k=5, seed=0)


def test_fold_roles():
    split = split_folds([f"d{i}" for i in range(12)], k=4, seed=2, val_fold=1, test_fold=0)
    assert set(split.val_ids) == set(split.folds[1])
    assert set(split.test_ids) == set(split.folds[0])
    train = set(split.train_ids)
    assert train.isdisjoint(split.val_ids) and train.isdisjoint(split.test_ids)
    with pytest.raises(ValueError):
        FoldSplit(folds=(("a",), ("b",)), val_fold=0, test_fold=0)


# ---------------------------------------------------------------------------
# meta_train


def test_zero_iterations_returns_random_init(micro_md, small_space):
    split = split_folds(micro_md.dataset_ids, k=3, seed=0)
    r1 = meta_train(micro_md, split, small_space, iters=0, seed=42)
    r2 = meta_train(micro_md, split, small_space, iters=0, seed=42)
    p1 = r1.checkpoint.to_payload()
    p2 = r2.checkpoint.to_payload()
    assert json.dumps(p1) == json.dumps(p2)
    assert r1.iterations_run == 0


def test_meta_train_deterministic_checkpoint_bytes(micro_md, small_space, tmp_path):
    split = split_folds(micro_md.dataset_ids, k=3, seed=0)
    paths = []
    for run in range(2):
        result = meta_train(micro_md, split, small_space, iters=30, eval_every=10, seed=5)
        path = tmp_path / f"ck{run}.json"
        result.checkpoint.save(path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_meta_train_improves_validation_nll(micro_md, small_space):
    improvements = []
    for seed in range(3):
        split = split_folds(micro_md.dataset_ids, k=3, seed=0)
        result = meta_train(
            micro_md, split, small_space, iters=300, eval_every=50, patience=50, seed=seed
        )
        improvements.append(result.initial_val_nll - result.best_val_nll)
        assert result.best_val_nll <= result.initial_val_nll
    assert np.median(improvements) > 0.0


def test_meta_train_never_touches_test_fold(micro_md, small_space):
    split = split_folds(micro_md.dataset_ids, k=3, seed=0, val_fold=1, test_fold=0)

    class Canary(DatasetTable):
        @property
        def losses_guard(self):  # pragma: no cover
            raise AssertionError

    md = micro_md
    poisoned = {}
    for did, table in md.datasets.items():
        if did in split.test_ids:
            poisoned[did] = _ExplodingTable(table)
        else:
            poisoned[did] = table
    import graybo.benchtab as bt

    boxed = bt.MetaDataset(datasets=poisoned)
    result = meta_train(boxed, split, small_space, iters=20, eval_every=10, seed=1)
    assert isinstance(result, MetaTrainResult)


class _ExplodingTable:
    """Stand-in whose data access raises; only identity metadata is safe."""

    def __init__(self, table):
        self.dataset_id = table.dataset_id

    def __getattr__(self, name):
        raise AssertionError(f"test-fold table accessed via {name!r}")


def test_early_stopping_returns_best_parameters(micro_md, small_space):
    split = split_folds(micro_md.dataset_ids, k=3, seed=0)
    result = meta_train(
        micro_md, split, small_space, iters=400, eval_every=20, patience=2, seed=7
    )
    assert result.best_val_nll == min(result.val_nll_history)
    # reload the checkpoint and confirm its parameters reproduce best_val_nll
    gp_like = result.checkpoint
    assert gp_like.manifest["format"] == "qtmeta-1"


def test_checkpoint_round_trip_bitwise(micro_md, small_space, tmp_path):
    split = split_folds(micro_md.dataset_ids, k=3, seed=0)
    result = meta_train(micro_md, split, small_space, iters=20, eval_every=10, seed=3)
    path = tmp_path / "ck.json"
    result.checkpoint.save(path)
    loaded = MetaCheckpoint.load(path)
    for name, arr in result.checkpoint.surrogate_arrays.items():
        assert np.array_equal(loaded.surrogate_arrays[name], arr)
    for name, arr in result.checkpoint.cost_arrays.items():
        assert np.array_equal(loaded.cost_arrays[name], arr)
    assert loaded.kernel == result.checkpoint.kernel
    assert loaded.manifest == result.checkpoint.manifest
    path2 = tmp_path / "ck2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_manifest_fields(micro_md, small_space):
    split = split_folds(micro_md.dataset_ids, k=3, seed=0, val_fold=2)
    result = meta_train(micro_md, split, small_space, iters=10, eval_every=5, seed=11)
    manifest = result.checkpoint.manifest
    assert set(manifest) == {"seed", "iters", "train_folds", "val_fold", "format"}
    assert manifest["val_fold"] == 2
    assert manifest["seed"] == 11


# ---------------------------------------------------------------------------
# zero-shot rank evaluation


def test_zero_shot_identity_correlation():
    from scipy.stats import spearmanr

    x = np.array([0.1, 0.4, 0.2, 0.9])
    assert spearmanr(x, x).statistic == pytest.approx(1.0)


def test_zero_shot_runs_on_held_out_dataset(micro_md, small_space):
    split = split_folds(micro_md.dataset_ids, k=3, seed=0, val_fold=1, test_fold=0)
    result = meta_train(micro_md, split, small_space, iters=50, eval_every=25, seed=2)
    held = micro_md.datasets[split.test_ids[0]]
    out = zero_shot_rank_eval(
        result.checkpoint, held, small_space, epoch=held.n_epochs, probe_count=6, seed=0
    )
    assert -1.0 <= out.correlation <= 1.0


def test_zero_shot_random_init_baseline(micro_md, small_space):
    held = next(iter(micro_md.datasets.values()))
    out = zero_shot_rank_eval(
        None, held, small_space, epoch=held.n_epochs, probe_count=6, seed=1
    )
    assert -1.0 <= out.correlation <= 1.0


def test_zero_shot_degenerate_predictions_flagged(micro_md, small_space):
    held = next(iter(micro_md.datasets.values()))
    flat = DatasetTable(
        dataset_id="flat",
        meta=held.meta,
        pipelines=held.pipelines,
        losses=np.full_like(held.losses, 0.5),
        costs=held.costs,
    )
    out = zero_shot_rank_eval(None, flat, small_space, epoch=flat.n_epochs, seed=2)
    assert out.degenerate and out.correlation == 0.0


def test_zero_shot_deterministic(micro_md, small_space):
    held = next(iter(micro_md.datasets.values()))
    a = zero_shot_rank_eval(None, held, small_space, epoch=4, probe_count=6, seed=3)
    b = zero_shot_rank_eval(None, held, small_space, epoch=4, probe_count=6, seed=3)
    assert a.correlation == b.correlation


def test_meta_train_records_the_cost_net_validation_mse(micro_md, small_space):
    # one cost MSE per validation NLL, on the same validation batches; the
    # entry at the best NLL is the checkpoint's cost net on them
    split = split_folds(micro_md.dataset_ids, k=3, seed=0)
    result = meta_train(micro_md, split, small_space, iters=120, eval_every=20, patience=10, seed=5)
    history = result.val_cost_mse_history
    assert len(history) == len(result.val_nll_history) == 7
    assert all(math.isfinite(v) and v > 0 for v in history)
    assert len(set(history)) == len(history)  # the cost net trains between evaluations
    n_epochs = micro_md.datasets[split.train_ids[0]].n_epochs
    ctx = PredictorContext.from_space(small_space, micro_md.datasets[split.train_ids[0]].meta, n_epochs, 1)
    val_rng = substream(5, "metatrain", "val-cells")
    batches = []
    for did in split.val_ids:
        cache = _DatasetCache(micro_md.datasets[did], small_space, ctx)
        pis = val_rng.integers(cache.table.n_pipelines, size=64)
        eps = val_rng.integers(1, n_epochs + 1, size=64)
        batches.append(cache.cell_batch(pis, eps))
    cp = CostPredictor(ctx, substream(5, "metatrain", "cost-init"))

    def val_mse():
        return sum(log_cost_mse(cp.raw_batch(inputs), c) for inputs, _, c in batches) / len(batches)

    assert history[0] == val_mse()
    load_into_blocks(cp.params(), result.checkpoint.cost_arrays)
    assert history[result.val_nll_history.index(result.best_val_nll)] == val_mse()
