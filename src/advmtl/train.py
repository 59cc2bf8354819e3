"""Training loop and evaluation.

One optimization step draws one task's batch (strict round-robin) and
is one call of ``_batch_grads``: it binds the parameters on a fresh
tape, builds the loss terms of the whole batch as one graph
(``_batch_terms``) and their weighted sum as one node (``_combine``),
rejects a non-finite loss, backpropagates once and releases the tape.
``sgd_step`` then updates every trainable tensor jointly; the
gradient-reversal node inside the adversarial term is what sends the
shared encoder and the discriminator in opposing directions. With
``alternating`` a step is two such calls: the first updates only the
discriminator, the second everything else. Unlabeled batches (when
enabled) contribute the adversarial term only.

An epoch is one pass over the largest task's training split; smaller
tasks cycle. Early stopping watches mean dev error across tasks.
``train_multitask`` trains the caller's model in place and returns that
same object, rewound to its best epoch: an undo journal keeps the prior
value of every tensor, or embedding row, that a step changed since the
last best epoch, and writes it back on return.

Evaluation and the probe and cosine diagnostics need no gradient, so
they run the tape-free ``models.encode`` on chunks of consecutive
sentences of at most ``ENCODE_TOKENS`` tokens; its folds keep only each
encoder's running state, so their memory is bounded by that budget, not
by the split.
"""

from __future__ import annotations

import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import models as M
from .autodiff import Tape, Tensor
from .data import Batch, TaskBatcher, TaskDataset, Example
from .errors import ConfigError, ContractError, InputError, NumericError, ShapeError


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    adv_weight: float = 0.05
    diff_weight: float = 0.01
    batch_size: int = 16
    max_epochs: int = 50
    patience: int = 5
    clip_norm: float = 5.0
    seed: int = 0
    alpha: Mapping[int, float] | None = None
    use_unlabeled: bool = False
    unlabeled_ratio: float = 1.0
    diff_mode: str = "sentence"
    alternating: bool = False

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "seed"):
            if not M._is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.seed < 0:  # numpy's generators reject it only at the first batch
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, w in (("adv_weight (lambda)", self.adv_weight),
                        ("diff_weight (gamma)", self.diff_weight)):
            if not (np.isfinite(w) and w >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {w}")
        if self.diff_mode not in ("sentence", "batch"):
            raise ConfigError(f"diff_mode must be 'sentence' or 'batch', got {self.diff_mode}")
        if not self.clip_norm > 0:  # NaN fails too; inf means no clipping
            raise ConfigError(f"clip_norm must be > 0, got {self.clip_norm}")
        if not np.isfinite(self.unlabeled_ratio) or self.unlabeled_ratio <= 0:
            raise ConfigError(
                f"unlabeled_ratio must be finite and > 0, got {self.unlabeled_ratio}")
        for k, v in (self.alpha or {}).items():
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"task weight alpha[{k}] must be finite and >= 0, got {v}")


@dataclass
class EpochTaskRecord:
    epoch: int
    task: str
    train_loss: float
    dev_error: float
    disc_acc: float | None
    l_adv: float | None
    l_diff: float | None


@dataclass(frozen=True)
class Divergence:
    """Where training stopped on a non-finite value.

    ``step`` counts the epoch's batches, labeled and unlabeled, from 0;
    ``task`` is that batch's task and ``cause`` the error's message.
    """

    epoch: int
    step: int
    task: str
    cause: str

    def __str__(self) -> str:
        return f"epoch {self.epoch}, step {self.step}, task '{self.task}': {self.cause}"


@dataclass
class TrainHistory:
    records: list[EpochTaskRecord] = field(default_factory=list)
    best_epoch: int = -1
    divergence: Divergence | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    def epochs(self) -> list[int]:
        return sorted({r.epoch for r in self.records})

    def mean_dev_error(self, epoch: int) -> float:
        errs = [r.dev_error for r in self.records if r.epoch == epoch]
        if not errs:
            raise InputError(f"no records for epoch {epoch}")
        return float(np.mean(errs))

    def to_csv(self, path) -> None:
        """One row per record; an absent value is an empty field."""
        with open(path, "w", encoding="utf-8") as fh:
            rows = csv.writer(fh, lineterminator="\n")
            rows.writerow(("epoch", "task", "train_loss", "dev_error", "disc_acc", "l_adv",
                           "l_diff"))
            for r in self.records:
                values = (r.train_loss, r.dev_error, r.disc_acc, r.l_adv, r.l_diff)
                rows.writerow((r.epoch, r.task, *(None if v is None else float(v) for v in values)))


@np.errstate(all="ignore")  # a non-finite value is reported as a NumericError, not a warning
def sgd_step(params: M.ModelParams, grads: Mapping[str, Tensor | ad.RowGrad],
             lr: float, clip_norm: float = float("inf")) -> None:
    """Global-norm clipping then an in-place descent step.

    ``grads`` must be keyed to trainable tensors only; frozen names are a
    contract violation, and a tensor without an entry is left as it is.
    NaN/Inf gradients abort naming the tensor. A :class:`~advmtl.autodiff.RowGrad`
    adds only its stored rows to the norm, which is exact because its other
    rows are zero, and updates only those rows of the tensor.

    A NaN or inf element makes its tensor's sum of squares NaN or inf, so
    the elementwise scan runs only for a tensor whose sum is not finite. A
    finite gradient whose squares overflow is not an error: only then is the
    global norm taken again over the entries divided by the largest
    magnitude, so a finite ``clip_norm`` still bounds the step.
    """
    tensors, frozen = params.tensors, params.frozen
    sq = 0.0
    for name, g in grads.items():
        if name in frozen:
            raise ContractError(f"gradient supplied for frozen parameter '{name}'")
        if name not in tensors:
            raise ContractError(f"gradient for unknown parameter '{name}'")
        stored = g.rows if isinstance(g, ad.RowGrad) else g
        g_sq = float((stored * stored).sum())
        if not np.isfinite(g_sq) and not np.all(np.isfinite(stored)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        sq += g_sq
    if lr == 0.0:
        return
    gnorm = float(np.sqrt(sq))
    if not np.isfinite(gnorm):  # every entry is finite, but their squares overflow
        rows = [g.rows if isinstance(g, ad.RowGrad) else g for g in grads.values()]
        big = max(float(np.abs(r).max()) for r in rows if r.size)
        gnorm = big * float(np.sqrt(sum(float(np.square(r / big).sum()) for r in rows)))
    factor = clip_norm / gnorm if gnorm > clip_norm else 1.0
    step = lr * factor
    for name, g in grads.items():
        if isinstance(g, ad.RowGrad):
            tensors[name][g.ids] -= step * g.rows
        else:
            tensors[name] -= step * g


def _batch_terms(bound, config: M.ModelConfig, batch: Batch, cfg: TrainConfig):
    """Per-batch loss nodes: (task CE, adversarial CE, diff) — None where n/a.

    The whole batch is one graph, on the tape of the ``bound`` leaves. Each
    term is the mean over its sentences; the diff term's 1/B is its own node.
    The diff term is over the final states (``diff_mode="batch"``) or over
    every timestep (``"sentence"``), for which only this mode scatters the
    packed ``[N, d]`` states into zero-padded ``[B, T, d]`` blocks, one per
    sentence; the padding adds nothing to ``S^T H``.
    """
    adversarial = config.has_discriminator
    if batch.is_unlabeled and not adversarial:
        raise ContractError("unlabeled batches require the adversarial scheme")
    task = None if batch.is_unlabeled else batch.task
    res = M.forward_batch(bound, config, batch.sequences, task, cfg.adv_weight)
    l_adv = (L.cross_entropy(res.disc_probs, [batch.task] * len(batch))
             if adversarial else None)
    if batch.is_unlabeled:
        return None, l_adv, None
    l_ce = L.cross_entropy(res.class_probs, batch.labels)
    l_diff = None
    if adversarial:
        if cfg.diff_mode == "sentence":  # each sentence's states as one [T, d] block
            grid = (len(batch), len(res.packing.active))
            S, H = (ad.scatter_rows(n, res.packing.slots, grid) for n in (res.S, res.H))
        else:
            S, H = res.s_T, res.h_T
        l_diff = ad.scale(L.diff_loss(S, H), 1.0 / len(batch))
    return l_ce, l_adv, l_diff


def _combine(l_ce, l_adv, l_diff, task: int, cfg: TrainConfig) -> ad.Node:
    """Total objective for one step as one tape node: alpha_k * ce + adv + gamma * diff.

    Absent (None) terms are left out, and a lone adversarial term (an
    unlabeled batch's objective) is returned as it is. The adversarial
    weight acts through the reversal node (the discriminator itself trains
    at full rate), so the adversarial term enters the sum unscaled. The
    weighted terms are added left to right into a copy of the first, and
    the vjp hands each term the upstream gradient times its weight. Every
    term must be a scalar.
    """
    alpha = 1.0 if cfg.alpha is None else cfg.alpha[task]
    terms = [(node, w) for node, w in ((l_ce, float(alpha)), (l_adv, None),
                                       (l_diff, float(cfg.diff_weight))) if node is not None]
    for node, _ in terms:
        if node.value.shape != ():
            raise ShapeError(f"_combine: a loss term of shape {node.value.shape}, not a scalar")
    if len(terms) == 1 and terms[0][1] is None:
        return terms[0][0]
    nodes, weights = zip(*terms)
    parts = [node.value if w is None else node.value * w for node, w in terms]
    total = np.array(parts[0])  # a copy: the sum must not write into a term's value
    for part in parts[1:]:
        total += part
    return nodes[0].tape.record(total, nodes,
                                lambda g: tuple(g if w is None else g * w for w in weights))


@np.errstate(all="ignore")  # a non-finite value is reported as a NumericError, not a warning
def _batch_grads(params: M.ModelParams, config: M.ModelConfig, batch: Batch,
                 cfg: TrainConfig) -> tuple[tuple, dict[str, Tensor | ad.RowGrad]]:
    """One batch's term values and its objective's gradients by parameter name.

    The values are those of (task CE, adversarial CE, diff), None where
    n/a; only the parameters the objective reaches get a gradient. A
    non-finite loss raises :class:`NumericError` before ``backward``. The
    tape is released on every exit, so no finished graph or the weights
    its leaves point at wait for the cycle collector.
    """
    tape = Tape()
    try:
        bound = params.bind(tape)
        parts = _batch_terms(bound, config, batch, cfg)
        total = _combine(*parts, batch.task, cfg)
        if not np.isfinite(total.value):
            raise NumericError("training loss is not finite")
        by_id = ad.backward(tape, total)
    finally:
        tape.release()
    grads = {name: by_id[node.idx] for name, node in bound.items() if node.idx in by_id}
    return tuple(None if p is None else float(p.value) for p in parts), grads


class _UndoJournal:
    """Prior values of what the steps since the last best epoch changed.

    ``record`` runs before each ``sgd_step`` and keeps, once per tensor, a
    copy of each tensor that a dense gradient is about to change; for a
    :class:`~advmtl.autodiff.RowGrad` it keeps only the rows of ``ids`` it
    has not kept yet, found through a ``bool`` mask per table. ``restore``
    writes them back, so the model returns to its bytes at the last
    ``clear``.
    """

    def __init__(self, params: M.ModelParams):
        self.tensors = params.tensors
        self.dense: dict[str, Tensor] = {}
        self.rows: dict[str, tuple[np.ndarray, list[tuple[np.ndarray, Tensor]]]] = {}

    def record(self, grads: Mapping[str, Tensor | ad.RowGrad]) -> None:
        for name, g in grads.items():
            if name in self.dense:
                continue
            arr = self.tensors[name]
            if isinstance(g, ad.RowGrad):
                seen, kept = self.rows.setdefault(name, (np.zeros(len(arr), bool), []))
                ids = g.ids[~seen[g.ids]]
                if ids.size:
                    seen[ids] = True
                    kept.append((ids, arr[ids]))
            else:
                self.dense[name] = arr.copy()

    def clear(self) -> None:
        self.dense.clear()
        self.rows.clear()

    def restore(self) -> None:
        # whole copies first: a row kept before its table's whole copy is older
        for name, saved in self.dense.items():
            np.copyto(self.tensors[name], saved)
        for name, (_, kept) in self.rows.items():
            for ids, rows in kept:
                self.tensors[name][ids] = rows


def _train_one_batch(params: M.ModelParams, config: M.ModelConfig, batch: Batch,
                     cfg: TrainConfig, journal: _UndoJournal | None = None):
    """One optimization step; returns the term values for bookkeeping.

    With ``alternating`` (adversarial schemes only) the discriminator's
    tensors are updated first, then the others from a second pass that
    sees the updated discriminator; the values are the second pass's.
    ``journal``, if given, records what each ``sgd_step`` is about to change.
    """
    passes = (True, False) if cfg.alternating and config.has_discriminator else (None,)
    for disc in passes:
        values, grads = _batch_grads(params, config, batch, cfg)
        if disc is not None:
            grads = {n: g for n, g in grads.items() if n.startswith("disc.") == disc}
        if journal is not None:
            journal.record(grads)
        sgd_step(params, grads, cfg.learning_rate, cfg.clip_norm)
    return values


ENCODE_TOKENS = 1024  # tokens per tape-free batch: bounds a fold's memory


def chunks(sentences: Sequence[Sequence[int]]):
    """Consecutive slices of ``sentences`` of at most ``ENCODE_TOKENS`` tokens in all.

    A longer sentence is a slice alone. Evaluation and ``dump-activations``
    run one tape-free batch per slice.
    """
    start, tokens = 0, 0
    for end, sentence in enumerate(sentences):
        if tokens + len(sentence) > ENCODE_TOKENS and end > start:
            yield sentences[start:end]
            start, tokens = end, 0
        tokens += len(sentence)
    if start < len(sentences):
        yield sentences[start:]


def _predictions(params: M.ModelParams, config: M.ModelConfig,
                 examples: Sequence[Example], task: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Argmax class and (for adversarial models) argmax task of every example."""
    classes, tasks = [], []
    for chunk in chunks([ex.tokens for ex in examples]):
        enc = M.encode(params, config, chunk, task)
        classes.append(np.argmax(enc.class_probs, axis=1))
        if enc.disc_probs is not None:
            tasks.append(np.argmax(enc.disc_probs, axis=1))
    return np.concatenate(classes), np.concatenate(tasks) if tasks else None


def evaluate(params: M.ModelParams, config: M.ModelConfig,
             examples: Sequence[Example], task: int) -> float:
    """Error rate of argmax predictions (argmax breaks ties toward class 0)."""
    if not examples:
        raise InputError("evaluate: empty split")
    pred, _ = _predictions(params, config, examples, task)
    wrong = int(np.count_nonzero(pred != [ex.label for ex in examples]))
    return wrong / len(examples)


def _dev_stats(params: M.ModelParams, config: M.ModelConfig,
               tasks: Sequence[TaskDataset]):
    """Per-task dev error and (for adversarial models) dev discriminator accuracy."""
    errors, disc_accs = [], []
    for k, ds in enumerate(tasks):
        pred, disc = _predictions(params, config, ds.dev, k)
        wrong = int(np.count_nonzero(pred != [ex.label for ex in ds.dev]))
        errors.append(wrong / len(ds.dev))
        disc_accs.append(0.0 if disc is None else int(np.count_nonzero(disc == k)) / len(ds.dev))
    return errors, (disc_accs if config.has_discriminator else None)


def train_multitask(params: M.ModelParams, config: M.ModelConfig,
                    datasets: Mapping[str, TaskDataset],
                    cfg: TrainConfig) -> tuple[M.ModelParams, TrainHistory]:
    """Joint min-max training of ``params`` in place; returns it at its best epoch.

    The returned model is ``params`` itself, holding the bytes it had at
    the end of the epoch with the lowest mean dev error (its starting
    weights if no epoch finished). An undo journal
    (:class:`_UndoJournal`) keeps what the steps since that epoch changed
    and writes it back on return, so no copy of the model is made.
    A task with an empty training or dev split raises :class:`InputError`
    before the first step. On divergence (non-finite loss or gradient)
    training stops and the model is returned at its best epoch so far;
    ``history.divergence`` names the epoch, the step, the task and the cause.
    """
    tasks = []
    for k, name in enumerate(config.task_names):
        if name not in datasets:
            raise ConfigError(f"dataset for task '{name}' missing")
        ds = datasets[name]
        if ds.n_classes != config.classes[k]:
            raise ConfigError(
                f"task '{name}': dataset has {ds.n_classes} classes, "
                f"model expects {config.classes[k]}")
        tasks.append(ds)
    if cfg.alpha is not None:
        missing = [k for k in range(config.n_tasks) if k not in cfg.alpha]
        if missing:
            raise ConfigError(f"alpha: no task weight for task {missing[0]}")
        extra = [k for k in cfg.alpha if k not in range(config.n_tasks)]
        if extra:
            raise ConfigError(f"alpha: task weight for task {extra[0]!r}, "
                              f"but the model has {config.n_tasks} tasks")
    for ds in tasks:
        if not ds.train:  # the batcher would have no batch to draw
            raise InputError(f"task '{ds.name}': empty training split")
        if not ds.dev:  # early stopping would read its error as 0
            raise InputError(f"task '{ds.name}': empty dev split")
    use_unlabeled = (cfg.use_unlabeled and config.has_discriminator)
    batcher = TaskBatcher(tasks, cfg.batch_size, cfg.seed, cfg.unlabeled_ratio)
    history = TrainHistory()
    best_err = float("inf")
    journal = _UndoJournal(params)
    best_epoch = -1
    since_best = 0
    K = config.n_tasks
    for epoch in range(cfg.max_epochs):
        sums = {k: [0.0, 0.0, 0.0, 0] for k in range(K)}  # ce, adv, diff, batches
        step = 0
        try:
            for _ in range(batcher.steps_per_epoch()):
                for k in range(K):
                    work = [batcher.next_labeled(k)]
                    if use_unlabeled:
                        work.extend(batcher.next_unlabeled(k))
                    for batch in work:
                        ce, adv, diff = _train_one_batch(params, config, batch, cfg, journal)
                        step += 1
                        if not batch.is_unlabeled:
                            s = sums[k]
                            s[0] += ce
                            s[1] += adv if adv is not None else 0.0
                            s[2] += diff if diff is not None else 0.0
                            s[3] += 1
        except NumericError as exc:
            history.divergence = Divergence(epoch, step, config.task_names[k], str(exc))
            break
        errors, disc_accs = _dev_stats(params, config, tasks)
        for k, name in enumerate(config.task_names):
            ce_sum, adv_sum, diff_sum, n = sums[k]
            n = max(n, 1)
            history.records.append(EpochTaskRecord(
                epoch=epoch, task=name,
                train_loss=ce_sum / n, dev_error=errors[k],
                disc_acc=None if disc_accs is None else disc_accs[k],
                l_adv=adv_sum / n if config.has_discriminator else None,
                l_diff=diff_sum / n if config.has_discriminator else None))
        mean_err = float(np.mean(errors))
        if mean_err < best_err:
            best_err = mean_err
            journal.clear()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    journal.restore()
    history.best_epoch = best_epoch
    return params, history


def shared_features(params: M.ModelParams, config: M.ModelConfig,
                    sentences: Sequence[Sequence[int]]) -> Tensor:
    """Final shared-encoder states, one row per sentence."""
    finals = [M.encode(params, config, chunk).s_T for chunk in chunks(sentences)]
    return np.concatenate(finals) if finals else np.empty((0, config.hidden_size))


def fit_probe(features: Tensor, labels: Sequence[int], n_classes: int,
              iters: int = 300, lr: float = 1.0) -> tuple[Tensor, Tensor]:
    """Multinomial logistic regression by full-batch gradient descent.

    The measurement instrument for shared-space purity: train it on
    frozen features, then read its accuracy on held-out features. The
    in-loop adversarial discriminator is not a valid purity measure
    because it is being actively fooled.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    n, d = X.shape
    Y = np.zeros((n, n_classes))
    Y[np.arange(n), y] = 1.0
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    for _ in range(iters):
        P = ad._softmax(X @ W.T + b)
        G = (P - Y) / n
        W -= lr * (G.T @ X)
        b -= lr * G.sum(axis=0)
    return W, b


def probe_accuracy(W: Tensor, b: Tensor, features: Tensor,
                   labels: Sequence[int]) -> float:
    pred = np.argmax(features @ W.T + b, axis=1)
    return float(np.mean(pred == np.asarray(labels)))


def _splits(config: M.ModelConfig, datasets: Mapping[str, TaskDataset],
            *names: str) -> list[tuple[list[Example], ...]]:
    """Each task's splits ``names``, in task order; an empty one raises :class:`InputError`."""
    out = []
    for task in config.task_names:
        splits = tuple(datasets[task].split(name) for name in names)
        for name, examples in zip(names, splits):
            if not examples:
                raise InputError(f"task '{task}': empty {name} split")
        out.append(splits)
    return out


def probe_shared_purity(params: M.ModelParams, config: M.ModelConfig,
                        datasets: Mapping[str, TaskDataset],
                        iters: int = 300, lr: float = 1.0) -> float:
    """Accuracy of a fresh probe discriminator on frozen shared features.

    Fits on training-split features, reports accuracy on dev-split
    features; chance level is 1/K. A task with an empty training or dev
    split raises :class:`InputError` before any sentence is encoded.
    """
    train_X, train_y, dev_X, dev_y = [], [], [], []
    for k, (train, dev) in enumerate(_splits(config, datasets, "train", "dev")):
        train_X.append(shared_features(params, config, [e.tokens for e in train]))
        train_y.extend([k] * len(train))
        dev_X.append(shared_features(params, config, [e.tokens for e in dev]))
        dev_y.extend([k] * len(dev))
    W, b = fit_probe(np.vstack(train_X), train_y, config.n_tasks, iters, lr)
    return probe_accuracy(W, b, np.vstack(dev_X), dev_y)


def shared_private_cosine(params: M.ModelParams, config: M.ModelConfig,
                          datasets: Mapping[str, TaskDataset],
                          split: str = "dev") -> float:
    """Mean |cosine| between final shared and private states over a split.

    A task whose ``split`` is empty raises :class:`InputError` before any
    sentence is encoded.
    """
    if not config.has_private:
        raise ConfigError("cosine diagnostic needs a scheme with private encoders")
    vals = []
    for k, (examples,) in enumerate(_splits(config, datasets, split)):
        for chunk in chunks([ex.tokens for ex in examples]):
            enc = M.encode(params, config, chunk, k)
            s, h = enc.s_T, enc.h_T
            denom = np.linalg.norm(s, axis=1) * np.linalg.norm(h, axis=1)
            dots = np.abs((s * h).sum(axis=1))
            vals.extend((dots[denom > 0] / denom[denom > 0]).tolist())
    return float(np.mean(vals)) if vals else 0.0


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

@dataclass
class GridResult:
    best_index: int
    best_params: M.ModelParams
    best_history: TrainHistory
    cells: list[tuple[dict, float]]


def _grid_cell(params: M.ModelParams, config: M.ModelConfig, datasets, cfg: TrainConfig):
    trained, history = train_multitask(params.copy(), config, datasets, cfg)
    if history.best_epoch < 0:
        return trained, history, float("inf")
    return trained, history, history.mean_dev_error(history.best_epoch)


def grid_search(params: M.ModelParams, config: M.ModelConfig,
                datasets: Mapping[str, TaskDataset], grid: Mapping[str, Sequence],
                base_cfg: TrainConfig, jobs: int = 1) -> GridResult:
    """Train a copy of ``params`` per grid cell; pick the lowest mean dev error.

    ``grid`` maps ``TrainConfig`` fields to the values to sweep; ``params``
    itself is left as it is. Cells are enumerated in deterministic key/value
    order; ties resolve to the earliest cell. Divergent cells score inf and
    lose. Cells are scored as they finish, in order, and only the best so
    far is kept, so at most two trained models are alive at once.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    keys = list(grid.keys())
    combos = list(itertools.product(*(grid[k] for k in keys)))
    if not combos:
        raise ConfigError("empty grid")
    cfgs = [replace(base_cfg, **dict(zip(keys, combo))) for combo in combos]
    cell = partial(_grid_cell, params, config, datasets)

    def outcomes():
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                yield from ex.map(cell, cfgs)
        else:
            yield from map(cell, cfgs)

    # no enumerate: its cached result tuple would keep the last cell's model
    # alive while the next cell trains
    errs, best, best_index = [], None, 0
    for out in outcomes():
        if best is None or out[2] < best[2]:
            best, best_index = out, len(errs)
        errs.append(out[2])
        del out  # unless it is the best, the next cell trains without this model
    cells = [(dict(zip(keys, combo)), err) for combo, err in zip(combos, errs)]
    return GridResult(best_index=best_index, best_params=best[0], best_history=best[1],
                      cells=cells)


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------

def train_transfer(source: M.ModelParams, target: TaskDataset, mode: str,
                   cfg: TrainConfig, vocab_size: int, model_seed: int,
                   ) -> tuple[M.ModelParams, M.ModelConfig, TrainHistory, float]:
    """Train an SC/BC model on the target task around ``source``'s frozen shared layer."""
    params, config = M.build_transfer(source, mode, target.name,
                                      target.n_classes, vocab_size, model_seed)
    trained, history = train_multitask(params, config, {target.name: target}, cfg)
    err = evaluate(trained, config, target.test, 0)
    return trained, config, history, err
