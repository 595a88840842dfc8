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
from .nn.adam import AdamState, adam_step
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
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2: train-mode batch norm needs two samples")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(kw_only=True)
class RegimeConfig(TrainConfig):
    """Task training knobs: the regime, its distillation weight, and the
    estimator's training knobs with a shorter default schedule."""

    regime: str
    kd_weight: float = 1.0
    epochs: int = 30

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        if self.kd_weight < 0:
            raise ValueError("kd_weight must be nonnegative")
        super().__post_init__()


@dataclass
class TaskSpec:
    kind: str  # "classification" | "regression"
    n_classes: Optional[int] = None
    metric: Optional[str] = None  # None: the kind's metric

    def __post_init__(self):
        self.metric = self.metric or ("accuracy" if self.kind == "classification" else "r_squared")
        if self.kind == "classification":
            if not self.n_classes or self.n_classes < 2:
                raise ValueError("classification needs n_classes >= 2")
            if self.metric != "accuracy":
                raise ValueError("classification tasks use the accuracy metric")
        elif self.kind == "regression":
            if self.metric != "r_squared":
                raise ValueError("regression tasks use the r_squared metric")
        else:
            raise ValueError(f"unknown task kind {self.kind!r}")

    @property
    def output_dim(self) -> int:
        return self.n_classes if self.kind == "classification" else 1


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
    in a worker (:mod:`cfdistill.pool`) unless this process is one.  The
    batches go in rounds of one per worker: a round's rows, cast to the
    model's dtype, share one block that is freed when the round ends, and
    each worker writes its rows into one shared output table.  Each batch
    runs the same forward as it would here, so the rows are the same bits
    either way.
    """
    bounds = batch_bounds(len(x), batch_size)
    if len(bounds) < 2 or pool.worker_count() < 2 or pool.in_worker():
        return np.concatenate([
            model.forward(x[a:b], train=False)[0] for a, b in bounds
        ])
    n = pool.worker_count()
    with pool.SharedArrays(np.empty((len(x), *model.output_shape), model.dtype)) as out:
        for r in range(0, len(bounds), n):
            batch_round = bounds[r:r + n]
            first, last = batch_round[0][0], batch_round[-1][1]
            with pool.SharedArrays(np.asarray(x[first:last], dtype=model.dtype)) as batches:
                pool.starmap(_predict_batch, [
                    (model, batches.handle, slice(a - first, b - first), out.handle, slice(a, b))
                    for a, b in batch_round
                ])
        return pool.load_shared(out.handle)[0]


def _predict_batch(model, batches, part, out, rows):
    """One batch of :func:`predict_network`, run in a pool worker: rows
    ``part`` of its round's block in, rows ``rows`` of the output table out."""
    (x,) = pool.load_shared(batches, part)
    y, _ = model.forward(x, train=False)
    pool.store_shared(out, rows, y)


def _epoch_batches(train_idx, batch_size, rng):
    """Shuffled batches, cut by :func:`batch_bounds` so that train-mode batch
    norm always sees at least two samples."""
    order = rng.permutation(train_idx)
    return [order[a:b] for a, b in batch_bounds(order.size, batch_size)]


def _fit(step, val_loss, model, params, config, train_idx, on_epoch=None):
    """The epoch loop every trainer shares: Adam on ``params`` under the
    epochs, patience, batch size, learning rate and seed of ``config``.

    ``step(batch)`` returns the batch's gradients, keyed like ``params``,
    and its named training losses; each step's gradients make one Adam
    step.  Each curve row holds the epoch, the epoch mean of each of those
    losses in order, then ``val_loss()``.  The ``model`` state with the least
    validation loss is restored at the end; ``config.patience`` epochs
    without improvement stop training early.  Returns (curve, best epoch,
    epochs run).
    """
    optimizer = AdamState(params, config.learning_rate)
    rng = np.random.default_rng([config.seed, 1])
    best_val, best_state, best_epoch = np.inf, model.get_state(), -1
    curve = []
    for epoch in range(config.epochs):
        losses = {}
        for batch in _epoch_batches(train_idx, config.batch_size, rng):
            grads, batch_losses = step(batch)
            adam_step(optimizer, params, grads)
            for name, value in batch_losses.items():
                losses.setdefault(name, []).append(value)
        val = val_loss()
        row = {"epoch": epoch, **{k: float(np.mean(v)) for k, v in losses.items()}, "val_loss": val}
        curve.append(row)
        if val < best_val:
            best_val, best_state, best_epoch = val, model.get_state(), epoch
        if on_epoch is not None:
            on_epoch(epoch, row)
        if config.patience is not None and epoch - best_epoch >= config.patience:
            break
    model.set_state(best_state)
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

    def step(batch):
        out, caches = model.forward(features[batch], train=True)
        loss, grad = distillation_loss(out, targets[batch])
        _, grads = model.backward(caches, grad)
        return model.named_grads(grads), {"train_loss": loss}

    def val_loss():
        return distillation_loss(predict_network(model, features[val_idx]), targets[val_idx])[0]

    curve, best_epoch, epochs_run = _fit(
        step, val_loss, model, model.named_params(), config, train_idx,
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
):
    """Train one task model under one regime; returns (network, result).

    The task network is the estimator's schedule plus a ``fully_connected``
    head as its last layer.  fix, init and kd require a trained estimator
    whose schedule matches the backbone exactly; base ignores it.  fix
    trains its head on, and kd distils toward, the teacher: the estimator's
    outputs over ``data.features``, computed here once per call.  Model
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
    teacher = predict_network(cf_estimator, features) if regime.regime in ("fix", "kd") else None
    fix = regime.regime == "fix"
    # fix keeps the estimator's backbone frozen: its penultimate features
    # are the teacher's outputs, and only the head is optimized.
    params = head.params if fix else network.named_params()

    def step(batch):
        if fix:
            penult = teacher[batch]
        else:
            penult, caches = backbone.forward(features[batch], train=True)
        out, head_cache = head.forward(penult, train=True)
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
        return grads, {
            "train_total": task_val + regime.kd_weight * kd_val,
            "train_task": task_val,
            "train_kd": kd_val,
        }

    def outputs(idx):
        penult = teacher[idx] if fix else predict_network(backbone, features[idx])
        return head.forward(penult)[0]

    def val_loss():
        return _task_loss(task, outputs(data.val_idx), data.targets[data.val_idx])[0]

    curve, _, epochs_run = _fit(step, val_loss, network, params, regime, data.train_idx)
    result = ExperimentResult(
        regime=regime.regime,
        n_channels=n_channels,
        seed=regime.seed,
        fold=fold,
        metric_value=_metric_value(task, outputs(data.test_idx), data.targets[data.test_idx]),
        epochs_run=epochs_run,
        curve=curve,
    )
    return network, result
