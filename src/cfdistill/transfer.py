"""Estimator training and the four task-transfer regimes.

The estimator maps mel grids to 40-d item embeddings under an MSE +
cosine-proximity loss.  A task network is the estimator's schedule (the
backbone, whose last layer gives the penultimate activation) with a
``fully_connected`` task head as its last layer; the regimes differ in
where the backbone weights come from and whether a distillation term pulls
the penultimate activation toward the (frozen) estimator's output:

* base — random init, task loss only;
* fix  — backbone copied from the estimator and frozen, head trained;
* init — backbone copied from the estimator, everything trained;
* kd   — random init, task loss + kd_weight * distillation loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import pool
from .evaluation import accuracy, r_squared
from .nn.adam import AdamConfig, AdamState, adam_step
from .nn.layers import FullyConnected
from .nn.losses import cosine_proximity_loss, mse_loss, softmax_cross_entropy
from .nn.network import LayerSpec, NetworkModel, batch_bounds, build_network

REGIMES = ("base", "fix", "init", "kd")


@dataclass
class TrainConfig:
    """Estimator training knobs.

    dtype selects the training precision; gradient checks always run the
    library default of 64-bit, 32-bit roughly halves desk-run times.
    """

    epochs: int = 40
    batch_size: int = 16
    learning_rate: float = 0.001
    seed: int = 0
    patience: Optional[int] = None
    dtype: str = "float64"

    def __post_init__(self):
        _check_training(self)


def _check_training(config):
    """The ranges every training config shares."""
    if config.epochs < 0:
        raise ValueError("epochs must be >= 0")
    if config.batch_size < 2:
        raise ValueError("batch_size must be >= 2: train-mode batch norm needs two samples")
    if config.learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    if config.patience is not None and config.patience < 1:
        raise ValueError("patience must be >= 1")


@dataclass
class RegimeConfig:
    regime: str
    kd_weight: float = 1.0
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 0.001
    seed: int = 0
    patience: Optional[int] = None
    dtype: str = "float64"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        if self.kd_weight < 0:
            raise ValueError("kd_weight must be nonnegative")
        _check_training(self)


@dataclass
class TaskSpec:
    kind: str  # "classification" | "regression"
    n_classes: Optional[int] = None
    target_dim: Optional[int] = None
    metric: Optional[str] = None  # None: the kind's metric

    def __post_init__(self):
        self.metric = self.metric or ("accuracy" if self.kind == "classification" else "r_squared")
        if self.kind == "classification":
            if not self.n_classes or self.n_classes < 2:
                raise ValueError("classification needs n_classes >= 2")
            if self.metric != "accuracy":
                raise ValueError("classification tasks use the accuracy metric")
        elif self.kind == "regression":
            self.target_dim = self.target_dim or 1
            if self.metric != "r_squared":
                raise ValueError("regression tasks use the r_squared metric")
        else:
            raise ValueError(f"unknown task kind {self.kind!r}")

    @property
    def output_dim(self) -> int:
        return self.n_classes if self.kind == "classification" else self.target_dim


@dataclass
class TaskData:
    """Features plus targets and a disjoint train/val/test index split."""

    features: np.ndarray
    targets: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        parts = [np.asarray(p, dtype=np.int64) for p in (self.train_idx, self.val_idx, self.test_idx)]
        self.train_idx, self.val_idx, self.test_idx = parts
        combined = np.concatenate(parts)
        if combined.size != np.unique(combined).size:
            raise ValueError("train/val/test index sets overlap")
        if any(p.size == 0 for p in parts):
            raise ValueError("train, val and test splits must all be nonempty")


@dataclass
class ExperimentResult:
    regime: str
    n_channels: int
    seed: int
    fold: int
    metric_name: str
    metric_value: float
    epochs_run: int
    seconds: float = 0.0
    curve: list = field(default_factory=list)


def distillation_loss(penultimate, estimated_cf):
    """MSE plus cosine proximity between activation and estimated embedding.

    Returns (value, gradient wrt the penultimate activation); the
    estimated embedding is a constant target, so no gradient reaches the
    estimator.  A perfect match scores 0 + (-1) = -1.
    """
    m_val, m_grad = mse_loss(penultimate, estimated_cf)
    c_val, c_grad = cosine_proximity_loss(penultimate, estimated_cf)
    return m_val + c_val, m_grad + c_grad


def predict_network(model: NetworkModel, x, batch_size=64):
    """Eval-mode forward over batches, no caches kept.

    With two or more batches and two or more pool workers, each batch runs
    in a worker (:mod:`cfdistill.pool`) unless this process is one.  A
    worker gets its batch, cast to the model's dtype, in a shared block of
    its own and writes its rows into one shared output table; at most one
    batch per worker is in flight.  Each batch runs the same forward as it
    would here, so the rows are the same bits either way.
    """
    bounds = batch_bounds(len(x), batch_size)
    if len(bounds) < 2 or pool.worker_count() < 2 or pool.in_worker():
        return np.concatenate([
            model.forward(x[a:b], train=False, keep_cache=False)[0] for a, b in bounds
        ])
    with pool.SharedArrays(np.empty((len(x), *model.output_shape), model.dtype)) as out:
        def jobs():
            for a, b in bounds:
                batch = pool.SharedArrays(np.asarray(x[a:b], dtype=model.dtype))
                yield (model, batch.handle, out.handle, a), batch

        pool.starmap_blocks(_predict_batch, jobs())
        return pool.load_shared(out.handle)[0]


def _predict_batch(model, batch, out, first):
    """One batch of :func:`predict_network`, run in a pool worker."""
    (x,) = pool.load_shared(batch)
    y, _ = model.forward(x, train=False, keep_cache=False)
    pool.store_shared(out, slice(first, first + len(y)), y)


def _epoch_batches(train_idx, batch_size, rng):
    """Shuffled batches, cut by :func:`batch_bounds` so that train-mode batch
    norm always sees at least two samples."""
    order = rng.permutation(train_idx)
    return [order[a:b] for a, b in batch_bounds(order.size, batch_size)]


def _fit(step, val_loss, get_state, set_state, epochs, patience, train_idx, batch_size, seed,
         on_epoch=None):
    """The epoch loop every trainer shares.

    ``step(batch)`` takes one optimizer step and returns that batch's
    named training losses.  Each curve row holds the epoch, the epoch mean
    of each of those losses in order, then ``val_loss()``.  The state with the least validation loss
    is restored at the end; ``patience`` epochs without improvement stop
    training early.  Returns (curve, best epoch, epochs run).
    """
    rng = np.random.default_rng([seed, 1])
    best_val, best_state, best_epoch = np.inf, get_state(), -1
    curve = []
    for epoch in range(epochs):
        losses = {}
        for batch in _epoch_batches(train_idx, batch_size, rng):
            for name, value in step(batch).items():
                losses.setdefault(name, []).append(value)
        val = val_loss()
        row = {"epoch": epoch, **{k: float(np.mean(v)) for k, v in losses.items()}, "val_loss": val}
        curve.append(row)
        if val < best_val:
            best_val, best_state, best_epoch = val, get_state(), epoch
        if on_epoch is not None:
            on_epoch(epoch, row)
        if patience is not None and epoch - best_epoch >= patience:
            break
    set_state(best_state)
    return curve, best_epoch, len(curve)


def train_cf_estimator(
    features,
    targets,
    specs,
    input_shape,
    config: TrainConfig,
    train_idx,
    val_idx,
    on_epoch=None,
):
    """Fit the audio-to-embedding estimator.

    Minimizes mse + cosine proximity on the 40-d output over ``train_idx``
    and returns the parameter snapshot with the lowest validation loss,
    plus an info dict (per-epoch curve, best epoch, epochs run).
    """
    dtype = np.dtype(config.dtype)
    features = np.asarray(features, dtype=dtype)
    targets = np.asarray(targets, dtype=np.float64)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ValueError("estimator training needs nonempty train and validation splits")
    if np.intersect1d(train_idx, val_idx).size:
        raise ValueError("train and validation splits overlap")
    model = build_network(specs, input_shape, seed=config.seed, dtype=dtype)
    out_dim = model.output_shape[0]
    if targets.ndim != 2 or targets.shape[1] != out_dim:
        raise ValueError(
            f"targets must be (n, {out_dim}) to match the model output, got {targets.shape}"
        )
    if train_idx.size < 2:
        raise ValueError("train split too small for train-mode batch norm")

    optimizer = AdamState(model.named_params(), AdamConfig(learning_rate=config.learning_rate))

    def step(batch):
        out, caches = model.forward(features[batch], train=True)
        m_val, m_grad = mse_loss(out, targets[batch])
        c_val, c_grad = cosine_proximity_loss(out, targets[batch])
        _, grads = model.backward(caches, m_grad + c_grad)
        adam_step(optimizer, model.named_params(), model.named_grads(grads))
        return {"train_loss": m_val + c_val}

    def val_loss():
        out = predict_network(model, features[val_idx])
        return mse_loss(out, targets[val_idx])[0] + cosine_proximity_loss(out, targets[val_idx])[0]

    curve, best_epoch, epochs_run = _fit(
        step, val_loss, model.get_state, model.set_state,
        config.epochs, config.patience, train_idx, config.batch_size, config.seed,
        on_epoch=None if on_epoch is None else lambda epoch, row: on_epoch(epoch, model, row),
    )
    return model, {"curve": curve, "best_epoch": best_epoch, "epochs_run": epochs_run}


def _task_loss(task: TaskSpec, outputs, targets):
    if task.kind == "classification":
        return softmax_cross_entropy(outputs, targets)
    t = targets.reshape(outputs.shape)
    return mse_loss(outputs, t)


def _metric_value(task: TaskSpec, outputs, targets):
    if task.kind == "classification":
        return accuracy(np.argmax(outputs, axis=1), targets)
    return r_squared(outputs[:, 0], np.asarray(targets, dtype=np.float64).reshape(-1))


def train_task(
    task: TaskSpec,
    data: TaskData,
    specs,
    input_shape,
    n_channels: int,
    regime: RegimeConfig,
    cf_estimator: Optional[NetworkModel] = None,
    fold: int = 0,
    teacher=None,
):
    """Train one task model under one regime; returns (network, result).

    The task network is the estimator's schedule plus a ``fully_connected``
    head as its last layer.  fix, init and kd require a trained estimator
    whose schedule matches the backbone exactly; base ignores it.  fix
    trains its head on, and kd distils toward, ``teacher``: the estimator's
    outputs over ``data.features``, computed here when not given.  Model
    selection keeps the epoch with the least task-specific validation loss
    (the kd term never enters selection).
    """
    if regime.regime != "base":
        if cf_estimator is None:
            raise ValueError(f"regime {regime.regime!r} requires a trained estimator")
        if list(cf_estimator.specs) != list(specs) or cf_estimator.input_shape != tuple(input_shape):
            raise ValueError("backbone schedule mismatch between estimator and task model")

    dtype = np.dtype(regime.dtype)
    backbone = build_network(specs, input_shape, seed=regime.seed, dtype=dtype)
    if regime.regime in ("fix", "init"):
        backbone.set_state(cf_estimator.get_state())
    head_rng = np.random.default_rng([regime.seed, 2])
    head = FullyConnected(backbone.output_shape[0], task.output_dim, head_rng, dtype=dtype)
    network = NetworkModel(
        [*specs, LayerSpec("fully_connected", width=task.output_dim)], input_shape,
        [*backbone.layers, head], [*backbone.shapes, (task.output_dim,)], dtype=dtype,
    )

    features = np.asarray(data.features, dtype=dtype)
    if regime.regime in ("fix", "kd") and teacher is None:
        teacher = predict_network(cf_estimator, features)
    fix = regime.regime == "fix"
    # fix keeps the estimator's backbone frozen: its penultimate features
    # are the teacher's outputs, and only the head is optimized.
    params = head.params if fix else network.named_params()
    optimizer = AdamState(params, AdamConfig(learning_rate=regime.learning_rate))

    def step(batch):
        if fix:
            penult = teacher[batch]
        else:
            penult, caches = backbone.forward(features[batch], train=True)
        out, head_cache = head.forward(penult)
        task_val, dout = _task_loss(task, out, data.targets[batch])
        dpenult, grads = head.backward(dout, head_cache)
        kd_val = 0.0
        if regime.regime == "kd":
            kd_val, kd_grad = distillation_loss(penult, teacher[batch])
            if regime.kd_weight != 0.0:
                dpenult = dpenult + regime.kd_weight * kd_grad
        if not fix:
            _, net_grads = backbone.backward(caches, dpenult)
            grads = network.named_grads([*net_grads, grads])
        adam_step(optimizer, params, grads)
        return {
            "train_total": task_val + regime.kd_weight * kd_val,
            "train_task": task_val,
            "train_kd": kd_val,
        }

    def outputs(idx):
        penult = teacher[idx] if fix else predict_network(backbone, features[idx])
        return head.forward(penult)[0]

    def val_loss():
        return _task_loss(task, outputs(data.val_idx), data.targets[data.val_idx])[0]

    curve, _, epochs_run = _fit(
        step, val_loss, network.get_state, network.set_state,
        regime.epochs, regime.patience, data.train_idx, regime.batch_size, regime.seed,
    )
    result = ExperimentResult(
        regime=regime.regime,
        n_channels=n_channels,
        seed=regime.seed,
        fold=fold,
        metric_name=task.metric,
        metric_value=_metric_value(task, outputs(data.test_idx), data.targets[data.test_idx]),
        epochs_run=epochs_run,
        curve=curve,
    )
    return network, result
