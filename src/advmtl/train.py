"""Training loop and evaluation.

One optimization step draws one task's batch (strict round-robin) and
is one call of ``_batch_grads``: it binds the parameters on a fresh
tape, builds the combined objective of the whole batch as one graph
(``_combine`` of ``_batch_terms``), rejects a non-finite loss,
backpropagates once and releases the tape. ``sgd_step`` then updates
every trainable tensor jointly; the gradient-reversal node inside the
adversarial term is what sends the shared encoder and the discriminator
in opposing directions. With ``alternating`` a step is two such calls:
the first updates only the discriminator, the second everything else.
Unlabeled batches (when enabled) contribute the adversarial term only.

An epoch is one pass over the largest task's training split; smaller
tasks cycle. Early stopping watches mean dev error across tasks and
returns the best-dev checkpoint. Evaluation and the probe and cosine
diagnostics need no gradient, so they run the tape-free ``models.encode``
on chunks of consecutive sentences of at most ``ENCODE_TOKENS`` tokens;
its folds keep only each encoder's running state, so their memory is
bounded by that budget, not by the split.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import models as M
from .autodiff import GradReversalSpec, Tape, Tensor
from .data import Batch, TaskBatcher, TaskDataset, Example
from .errors import ConfigError, ContractError, InputError, NumericError


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
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
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


@dataclass
class TrainHistory:
    records: list[EpochTaskRecord] = field(default_factory=list)
    best_epoch: int = -1
    diverged: bool = False

    def epochs(self) -> list[int]:
        return sorted({r.epoch for r in self.records})

    def mean_dev_error(self, epoch: int) -> float:
        errs = [r.dev_error for r in self.records if r.epoch == epoch]
        if not errs:
            raise InputError(f"no records for epoch {epoch}")
        return float(np.mean(errs))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,task,train_loss,dev_error,disc_acc,l_adv,l_diff\n")
            for r in self.records:
                opt = lambda v: "" if v is None else repr(float(v))
                fh.write(f"{r.epoch},{r.task},{repr(float(r.train_loss))},"
                         f"{repr(float(r.dev_error))},{opt(r.disc_acc)},"
                         f"{opt(r.l_adv)},{opt(r.l_diff)}\n")


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


def _batch_terms(tape: Tape, bound, config: M.ModelConfig, batch: Batch,
                 cfg: TrainConfig):
    """Per-batch loss nodes: (task CE, adversarial CE, diff) — None where n/a.

    The whole batch is one graph. Each term is the mean over its sentences.
    The diff term is over the final states (``diff_mode="batch"``) or over
    every timestep (``"sentence"``), for which the forward pass's ``[N, d]``
    token rows are padded to ``[B, T, d]`` here; the padding adds nothing to
    ``S^T H``.
    """
    adversarial = config.has_discriminator
    if batch.is_unlabeled and not adversarial:
        raise ContractError("unlabeled batches require the adversarial scheme")
    rev = GradReversalSpec(cfg.adv_weight) if adversarial else None
    task = None if batch.is_unlabeled else batch.task
    res = M.forward_batch(tape, bound, config, batch.sequences, task,
                          rev_spec=rev, want_disc=adversarial)
    l_adv = (L.cross_entropy(res.disc_probs, [batch.task] * len(batch))
             if adversarial else None)
    if batch.is_unlabeled:
        return None, l_adv, None
    l_ce = L.cross_entropy(res.class_probs, batch.labels)
    l_diff = None
    if adversarial:
        S, H = res.s_T, res.h_T
        if cfg.diff_mode == "sentence":  # each sentence's states as one [T, d] block
            lengths = [len(s) for s in batch.sequences]
            S, H = ad.pad_runs(res.S, lengths), ad.pad_runs(res.H, lengths)
        l_diff = ad.scale(L.diff_loss(S, H), 1.0 / len(batch))
    return l_ce, l_adv, l_diff


def _combine(tape: Tape, l_ce, l_adv, l_diff, task: int, cfg: TrainConfig) -> ad.Node:
    """Total objective for one step: alpha_k * ce + adv + gamma * diff.

    Absent (None) terms are left out, so an unlabeled batch's objective is
    its adversarial term alone. The adversarial weight acts through the
    reversal node (the discriminator itself trains at full rate), so the
    adversarial term enters the sum unscaled.
    """
    terms = []
    if l_ce is not None:
        alpha = 1.0 if cfg.alpha is None else float(cfg.alpha[task])
        terms.append(ad.scale(l_ce, alpha))
    if l_adv is not None:
        terms.append(l_adv)
    if l_diff is not None:
        terms.append(ad.scale(l_diff, cfg.diff_weight))
    return terms[0] if len(terms) == 1 else ad.add_n(terms)


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
        parts = _batch_terms(tape, bound, config, batch, cfg)
        total = _combine(tape, *parts, batch.task, cfg)
        if not np.isfinite(total.value):
            raise NumericError("training loss is not finite")
        by_id = ad.backward(tape, total)
    finally:
        tape.release()
    grads = {name: by_id[node.idx] for name, node in bound.items() if node.idx in by_id}
    return tuple(None if p is None else float(p.value) for p in parts), grads


def _train_one_batch(params: M.ModelParams, config: M.ModelConfig, batch: Batch,
                     cfg: TrainConfig):
    """One optimization step; returns the term values for bookkeeping.

    With ``alternating`` (adversarial schemes only) the discriminator's
    tensors are updated first, then the others from a second pass that
    sees the updated discriminator; the values are the second pass's.
    """
    if not (cfg.alternating and config.has_discriminator):
        values, grads = _batch_grads(params, config, batch, cfg)
        sgd_step(params, grads, cfg.learning_rate, cfg.clip_norm)
        return values
    for disc in (True, False):
        values, grads = _batch_grads(params, config, batch, cfg)
        sgd_step(params, {n: g for n, g in grads.items() if n.startswith("disc.") == disc},
                 cfg.learning_rate, cfg.clip_norm)
    return values


ENCODE_TOKENS = 1024  # tokens per encode call in evaluation: bounds a fold's memory


def _encode_split(params: M.ModelParams, config: M.ModelConfig,
                  sentences: Sequence[Sequence[int]], task: int | None = None):
    """``M.encode`` over consecutive chunks of ``sentences``; yields each chunk's Encoding.

    A chunk is consecutive sentences of at most ``ENCODE_TOKENS`` tokens in
    all; a longer sentence is a chunk alone.
    """
    start, tokens = 0, 0
    for end, sentence in enumerate(sentences):
        if tokens + len(sentence) > ENCODE_TOKENS and end > start:
            yield M.encode(params, config, sentences[start:end], task)
            start, tokens = end, 0
        tokens += len(sentence)
    if start < len(sentences):
        yield M.encode(params, config, sentences[start:], task)


def _predictions(params: M.ModelParams, config: M.ModelConfig,
                 examples: Sequence[Example], task: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Argmax class and (for adversarial models) argmax task of every example."""
    classes, tasks = [], []
    for enc in _encode_split(params, config, [ex.tokens for ex in examples], task):
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
    """Joint min-max training; returns the best-dev checkpoint and history.

    A task with an empty dev split raises :class:`InputError` before the
    first step. On divergence (non-finite loss or gradient) training
    stops and the best checkpoint so far is returned with
    ``history.diverged`` set.
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
    for ds in tasks:
        if not ds.dev:  # early stopping would read its error as 0
            raise InputError(f"task '{ds.name}': empty dev split")
    use_unlabeled = (cfg.use_unlabeled and config.has_discriminator)
    batcher = TaskBatcher(tasks, cfg.batch_size, cfg.seed, cfg.unlabeled_ratio)
    history = TrainHistory()
    best_err = float("inf")
    best_params = params.copy()
    best_epoch = -1
    since_best = 0
    K = config.n_tasks
    for epoch in range(cfg.max_epochs):
        sums = {k: [0.0, 0.0, 0.0, 0] for k in range(K)}  # ce, adv, diff, batches
        try:
            for _ in range(batcher.steps_per_epoch()):
                for k in range(K):
                    work = [batcher.next_labeled(k)]
                    if use_unlabeled:
                        work.extend(batcher.next_unlabeled(k))
                    for batch in work:
                        ce, adv, diff = _train_one_batch(params, config, batch, cfg)
                        if not batch.is_unlabeled:
                            s = sums[k]
                            s[0] += ce
                            s[1] += adv if adv is not None else 0.0
                            s[2] += diff if diff is not None else 0.0
                            s[3] += 1
        except NumericError:
            history.diverged = True
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
            for dst, src in zip(best_params.tensors.values(), params.tensors.values()):
                np.copyto(dst, src)
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    history.best_epoch = best_epoch
    return best_params, history


def shared_features(params: M.ModelParams, config: M.ModelConfig,
                    sentences: Sequence[Sequence[int]]) -> Tensor:
    """Final shared-encoder states, one row per sentence."""
    chunks = [enc.s_T for enc in _encode_split(params, config, sentences)]
    return np.concatenate(chunks) if chunks else np.empty((0, config.hidden_size))


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


def probe_shared_purity(params: M.ModelParams, config: M.ModelConfig,
                        datasets: Mapping[str, TaskDataset],
                        iters: int = 300, lr: float = 1.0) -> float:
    """Accuracy of a fresh probe discriminator on frozen shared features.

    Fits on training-split features, reports accuracy on dev-split
    features; chance level is 1/K.
    """
    train_X, train_y, dev_X, dev_y = [], [], [], []
    for k, name in enumerate(config.task_names):
        ds = datasets[name]
        train_X.append(shared_features(params, config, [e.tokens for e in ds.train]))
        train_y.extend([k] * len(ds.train))
        dev_X.append(shared_features(params, config, [e.tokens for e in ds.dev]))
        dev_y.extend([k] * len(ds.dev))
    W, b = fit_probe(np.vstack(train_X), train_y, config.n_tasks, iters, lr)
    return probe_accuracy(W, b, np.vstack(dev_X), dev_y)


def shared_private_cosine(params: M.ModelParams, config: M.ModelConfig,
                          datasets: Mapping[str, TaskDataset],
                          split: str = "dev") -> float:
    """Mean |cosine| between final shared and private states over a split."""
    if not config.has_private:
        raise ConfigError("cosine diagnostic needs a scheme with private encoders")
    vals = []
    for k, name in enumerate(config.task_names):
        split_tokens = [ex.tokens for ex in datasets[name].split(split)]
        for enc in _encode_split(params, config, split_tokens, k):
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
