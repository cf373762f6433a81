import json
import math

import numpy as np
import pytest

from graybo.benchtab import DatasetTable, GeneratorConfig, generate
from graybo.core import SearchSpace, encode
from graybo.costmodel import CostPredictor, log_cost_mse
from graybo.metalearn import (
    CheckpointFormatError,
    FoldSplit,
    _DatasetCache,
    MetaCheckpoint,
    MetaTrainResult,
    meta_train,
    split_folds,
    zero_shot_rank_eval,
)
from graybo.rng import substream
from graybo.surrogate import DeepKernelGP, PredictorContext

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
    cache = _DatasetCache(table, {id(p): encode(p, small_space) for p in table.pipelines}, ctx)
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


def test_meta_train_encodes_each_shared_pipeline_once(micro_md, small_space, monkeypatch):
    import graybo.metalearn as metalearn

    calls = []
    encode = metalearn.encode
    monkeypatch.setattr(metalearn, "encode", lambda p, space: calls.append(p) or encode(p, space))
    split = split_folds(micro_md.dataset_ids, k=3, seed=0)
    meta_train(micro_md, split, small_space, iters=0)
    used = [p for did in split.train_ids + split.val_ids for p in micro_md.datasets[did].pipelines]
    assert len(used) > len({id(p) for p in used})  # the generator shares the pipeline objects
    assert sorted(map(id, calls)) == sorted({id(p) for p in used})


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
    assert loaded.arrays.keys() == result.checkpoint.arrays.keys()
    for name, arr in result.checkpoint.arrays.items():
        assert _same_bytes(loaded.arrays[name], arr), name
    assert loaded.manifest == result.checkpoint.manifest
    path2 = tmp_path / "ck2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def _predictors(space, meta, seed, n_models=None):
    if n_models is not None:
        space = SearchSpace(dims=space.dims, hub=space.hub[:n_models])
    ctx = PredictorContext.from_space(space, meta, 8, 1)
    return DeepKernelGP(ctx, substream(seed, "gp")), CostPredictor(ctx, substream(seed, "cp"))


def _payload(small_space, meta_features):
    gp, cp = _predictors(small_space, meta_features, 19)
    return MetaCheckpoint.from_predictors(gp, cp, {"format": "qtmeta-1"}).to_payload()


def test_checkpoint_payload_round_trip_bitwise(small_space, meta_features):
    # every block of both predictors, the kernel's included, survives JSON
    gp, cp = _predictors(small_space, meta_features, 19)
    gp.kernel.log_ls.values[...] = 0.1  # not a float that JSON rounds to
    ckpt = MetaCheckpoint.from_predictors(gp, cp, {"format": "qtmeta-1"})
    assert list(ckpt.arrays) == [b.name for b in gp.params() + cp.params()]
    loaded = MetaCheckpoint.from_payload(json.loads(json.dumps(ckpt.to_payload())))
    gp2, cp2 = _predictors(small_space, meta_features, 20)
    loaded.apply_to(gp2, cp2)
    assert gp2.vector.values.tobytes() == gp.vector.values.tobytes()
    assert cp2.vector.values.tobytes() == cp.vector.values.tobytes()
    assert json.dumps(loaded.to_payload()) == json.dumps(ckpt.to_payload())


def test_checkpoint_apply_validates_names_and_shapes(small_space, meta_features):
    gp, cp = _predictors(small_space, meta_features, 21)
    ckpt = MetaCheckpoint.from_predictors(gp, cp, {"format": "qtmeta-1"})
    gp2, cp2 = _predictors(small_space, meta_features, 22, n_models=2)  # narrower model embedding
    with pytest.raises(CheckpointFormatError, match="surrogate.model_embed.W"):
        ckpt.apply_to_surrogate(gp2)
    del ckpt.arrays["cost.head.b"]
    ckpt.apply_to_surrogate(gp)  # the surrogate needs no cost block
    with pytest.raises(CheckpointFormatError, match="missing block 'cost.head.b'"):
        ckpt.apply_to(gp, cp)


def test_checkpoint_rejects_bad_format(small_space, meta_features):
    payload = _payload(small_space, meta_features)
    payload["format"] = "qtck-0"
    with pytest.raises(CheckpointFormatError, match="qtck-0"):
        MetaCheckpoint.from_payload(payload)
    payload = _payload(small_space, meta_features)
    payload["manifest"]["format"] = "qtmeta-0"
    with pytest.raises(CheckpointFormatError, match="qtmeta-0"):
        MetaCheckpoint.from_payload(payload)


def _malform(case, payload):
    block = payload["blocks"][0]
    if case == "not-an-object":
        return payload["blocks"]
    if case == "missing-blocks":
        del payload["blocks"]
    elif case == "missing-shape":
        del block["shape"]
    elif case == "missing-kernel-key":
        del payload["kernel"]["log_nv"]
    elif case == "bad-base64":
        block["values_b64_f64le"] = "@" + block["values_b64_f64le"][1:]
    elif case == "size-not-shape":
        block["shape"] = [block["shape"][0] + 1, *block["shape"][1:]]
    elif case == "shape-wildcard":
        block["shape"] = [-1]
    elif case == "kernel-not-a-number":
        payload["kernel"]["log_sv"] = "0.5"
    elif case == "kernel-nan":
        payload["kernel"]["log_nv"] = math.nan
    elif case == "kernel-inf":
        payload["kernel"]["log_ls"] = math.inf
    return payload


MALFORMED = {
    "not-an-object": "not a JSON object",
    "missing-blocks": "missing key 'blocks'",
    "missing-shape": "block 'surrogate.model_embed.W': missing key 'shape'",
    "missing-kernel-key": "kernel: missing key 'log_nv'",
    "bad-base64": "block 'surrogate.model_embed.W'",
    "size-not-shape": "block 'surrogate.model_embed.W'",
    "shape-wildcard": "block 'surrogate.model_embed.W'",
    "kernel-not-a-number": "kernel: 'log_sv' holds a str",
    "kernel-nan": "block 'kernel.log_nv' holds non-finite values",
    "kernel-inf": "block 'kernel.log_ls' holds non-finite values",
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_checkpoint_rejects_a_malformed_payload(small_space, meta_features, case):
    # each case went through unchecked, or raised KeyError, TypeError,
    # AttributeError or a bare ValueError, before the kernel floats were
    # read as blocks are
    payload = json.loads(json.dumps(_malform(case, _payload(small_space, meta_features))))
    with pytest.raises(CheckpointFormatError) as info:
        MetaCheckpoint.from_payload(payload)
    assert MALFORMED[case] in str(info.value)


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
        table = micro_md.datasets[did]
        cache = _DatasetCache(table, {id(p): encode(p, small_space) for p in table.pipelines}, ctx)
        pis = val_rng.integers(cache.table.n_pipelines, size=64)
        eps = val_rng.integers(1, n_epochs + 1, size=64)
        batches.append(cache.cell_batch(pis, eps))
    cp = CostPredictor(ctx, substream(5, "metatrain", "cost-init"))

    def val_mse():
        return sum(log_cost_mse(cp.raw_batch(inputs), c) for inputs, _, c in batches) / len(batches)

    assert history[0] == val_mse()
    for b in cp.params():
        b.values[...] = result.checkpoint.arrays[b.name]
    assert history[result.val_nll_history.index(result.best_val_nll)] == val_mse()
