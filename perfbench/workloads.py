"""The benchmark's workloads: inputs, set-up and one loop iteration each.

Every workload trains or evaluates the ``asp`` scheme; ``fs`` and ``sp``
run a subset of its code path. Sizes are fixed here; the seed only picks
the generated corpus and the initial weights.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from advmtl import autodiff as A
from advmtl import data as D
from advmtl import models as M
from advmtl import train as T

import reference
from tracer import HOOKS, signature_of

SETUP_REPS = 9
SAMPLE_PER_TASK = 2  # test sentences per task compared against the reference
PROB_TOLERANCE = 1e-9
LEARNING_RATE = 0.1
FORWARD_PARAMS = next(params for key, _, _, params in HOOKS if key == "models.forward")


@dataclass(frozen=True)
class Workload:
    synth: dict              # SynthSpec fields other than the seed
    hidden: int              # d = e
    vocab_size: int | None   # None: the corpus vocabulary
    train: dict | None       # TrainConfig fields; None for the read-only workload
    ckpt_reps: int           # checkpoint saves and loads per iteration
    speed: str               # speed.SpeedProbe kernel whose time follows the workload's


WORKLOADS = {
    # Tiny tensors: per-timestep LSTM loops and tape bookkeeping dominate.
    # Unlabeled batches (ratio 0.5) also run the adversarial_loss path.
    # 112 training sentences per task are 7 full batches, and 48 unlabeled
    # sentences per task are exactly the 3 batches one epoch draws.
    "desk-asp": Workload(
        synth=dict(tasks=4, sentences_per_task=160, unlabeled_per_task=48),
        hidden=16, vocab_size=None,
        train=dict(batch_size=16, use_unlabeled=True, unlabeled_ratio=0.5),
        ckpt_reps=100, speed="interp"),
    # Paper scale: 16 tasks, d = e = 200 and a 60,000-row embedding padded
    # past the corpus vocabulary; dense V x e gradients make memory traffic
    # dominate. Labeled batches only.
    "paper-asp": Workload(
        synth=dict(tasks=16, sentences_per_task=13, min_len=4, max_len=30),
        hidden=200, vocab_size=60000,
        train=dict(batch_size=16),
        ckpt_reps=5, speed="mem"),
    # Read path: load a checkpoint and evaluate every test split; probe and
    # cosine diagnostics once per run. No backward pass and no sgd_step.
    "eval-probe": Workload(
        synth=dict(tasks=16, sentences_per_task=300, min_len=5, max_len=40),
        hidden=64, vocab_size=None, train=None, ckpt_reps=5, speed="interp"),
}


class OpFailed(Exception):
    """An operation failed; the rest of the iteration depends on it."""


Span = tuple[float, float, float]  # start, end, seconds (speed.SpeedProbe.since)


class Ops:
    """Operations attempted and failed, plus the timing samples of a run."""

    def __init__(self, quiet, speed):
        self.quiet = quiet  # context manager that pauses tracing
        self.speed = speed  # speed.SpeedProbe that times the calls
        self.attempted = 0
        self.failed = 0
        self.measured_s = 0.0  # wall time inside the timed library calls
        self.samples: dict[str, list[Span]] = {}
        # Throughput metrics: metric -> call key -> (sentences per call, spans)
        self.calls: dict[str, dict[str, tuple[int, list[Span]]]] = {}
        self.digests: list[dict] = []
        self.probe_digest = ""
        self.notes: set[str] = set()

    def timed(self, fn, *args):
        """Call ``fn`` once; return (span, result), counting a raise as a failure."""
        self.attempted += 1
        mark = self.speed.mark()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(fn.__name__) from None
        span = self.speed.since(mark)
        self.measured_s += span[1] - span[0]
        return span, result

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def sample(self, metric: str, span: Span) -> None:
        self.samples.setdefault(metric, []).append(span)

    def call(self, metric: str, key: str, sentences: int, span: Span) -> None:
        """One timed call of a throughput metric; the same key always does the same work."""
        self.calls.setdefault(metric, {}).setdefault(key, (sentences, []))[1].append(span)


@dataclass
class State:
    """Inputs built by one set-up."""

    corpus: dict
    config: M.ModelConfig
    params: M.ModelParams
    train_cfg: T.TrainConfig | None
    train_sents: int      # sentences one train_multitask call consumes
    ckpt_path: str        # written by set-up on the read-only workload
    work_dir: str


def train_sentences(corpus, cfg: T.TrainConfig) -> int:
    """Labeled plus unlabeled sentences one epoch of ``train_multitask`` draws.

    Each task draws ``ceil(n_train / batch)`` labeled batches, one full pass,
    and ``floor(that * unlabeled_ratio)`` unlabeled batches; the unlabeled
    pools are sized to hold exactly those full batches.
    """
    total = 0
    for ds in corpus.values():
        steps = math.ceil(len(ds.train) / cfg.batch_size)
        total += len(ds.train)
        if cfg.use_unlabeled:
            owed = math.floor(steps * cfg.unlabeled_ratio) * cfg.batch_size
            if owed != len(ds.unlabeled):
                raise ValueError(f"unlabeled pool of {len(ds.unlabeled)} is not the "
                                 f"{owed} sentences one epoch draws")
            total += owed
    return total


def set_up(wl: Workload, seed: int, work_dir: str) -> State:
    """Build the workload's inputs."""
    raw, _ = D.generate_synthetic(D.SynthSpec(seed=seed, **wl.synth))
    corpus, vocab = D.encode_corpus(raw)
    names = tuple(sorted(corpus))
    config = M.ModelConfig(scheme="asp", task_names=names,
                           classes=tuple(corpus[n].n_classes for n in names),
                           hidden_size=wl.hidden, embed_size=wl.hidden,
                           vocab_size=max(wl.vocab_size or 0, len(vocab)))
    params = M.init_model(config, seed)
    ckpt_path = os.path.join(work_dir, "setup.bin")
    train_cfg = None
    if wl.train is None:
        M.save_checkpoint(ckpt_path, params, config)
    else:
        train_cfg = T.TrainConfig(learning_rate=LEARNING_RATE, max_epochs=1, seed=seed,
                                  **wl.train)
    n = train_sentences(corpus, train_cfg) if train_cfg else 0
    return State(corpus, config, params, train_cfg, n, ckpt_path, work_dir)


def params_digest(params: M.ModelParams) -> str:
    h = hashlib.sha256()
    for name, arr in params.named_tensors().items():
        h.update(f"{name}{arr.shape}".encode())
        h.update(memoryview(np.ascontiguousarray(arr)))
    return h.hexdigest()


def bitwise_equal(a: M.ModelParams, b: M.ModelParams) -> bool:
    ta, tb = a.named_tensors(), b.named_tensors()
    if list(ta) != list(tb):
        return False
    for name, x in ta.items():
        y = tb[name]
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        if not np.array_equal(np.ascontiguousarray(x).view(np.uint64),
                              np.ascontiguousarray(y).view(np.uint64)):
            return False
    return True


def library_probs(params, config, tokens, task):
    tape = A.Tape()
    bound = params.bind(tape)
    return M.forward(tape, bound, config, tokens, task, want_disc=False).class_probs.value


def history_ok(history) -> bool:
    if history.diverged:
        return False
    vals = [v for r in history.records
            for v in (r.train_loss, r.dev_error, r.l_adv, r.l_diff) if v is not None]
    return bool(np.all(np.isfinite(vals)))


def iteration(wl: Workload, st: State, ops: Ops):
    """One closed-loop pass of the workload's calls, back to back.

    Returns (model, test error rates) for :func:`probe`.
    """
    cfg = st.config
    names = cfg.task_names
    save_path = os.path.join(st.work_dir, "loop.bin")
    if st.train_cfg is not None:
        with ops.quiet():
            params = st.params.copy()
        span, (model, history) = ops.timed(T.train_multitask, params, cfg, st.corpus,
                                           st.train_cfg)
        del params  # trained in place; ``model`` is the best-dev copy
        ops.call("sents_per_s", "train_multitask", st.train_sents, span)
        ops.check("training finished with finite losses", history_ok(history))
    else:
        for _ in range(wl.ckpt_reps):
            model = None  # free the previous copy before loading the next
            span, (model, loaded_cfg, _) = ops.timed(M.load_checkpoint, st.ckpt_path)
            ops.sample("ckpt_load_s", span)
        ops.check("set-up checkpoint loads bitwise equal",
                  loaded_cfg == cfg and bitwise_equal(model, st.params))

    errors = []
    eval_metric = "sents_per_s" if st.train_cfg is None else "eval_sents_per_s"
    for k, name in enumerate(names):
        test = st.corpus[name].test
        span, err = ops.timed(T.evaluate, model, cfg, test, k)
        errors.append(err)
        ops.call(eval_metric, name, len(test), span)

    for _ in range(wl.ckpt_reps):
        span, _ = ops.timed(M.save_checkpoint, save_path, model, cfg)
        ops.sample("ckpt_save_s", span)
        if st.train_cfg is not None:
            loaded = None
            span, (loaded, loaded_cfg, _) = ops.timed(M.load_checkpoint, save_path)
            ops.sample("ckpt_load_s", span)
    with ops.quiet():
        if st.train_cfg is not None:
            ops.check("saved checkpoint loads bitwise equal",
                      loaded_cfg == cfg and bitwise_equal(loaded, model))
        else:
            with open(save_path, "rb") as a, open(st.ckpt_path, "rb") as b:
                ops.check("re-saved checkpoint is byte-identical", a.read() == b.read())
        ops.digests.append(check_outputs(model, cfg, st.corpus, errors, ops))
    return model, errors


def probe(st: State, ops: Ops, model, errors) -> None:
    """Probe and cosine diagnostics, and the full reference check; once per run."""
    cfg = st.config
    (t0, _, probe_s), purity = ops.timed(T.probe_shared_purity, model, cfg, st.corpus)
    (_, t1, cos_s), cosine = ops.timed(T.shared_private_cosine, model, cfg, st.corpus)
    ops.sample("probe_s", (t0, t1, probe_s + cos_s))
    with ops.quiet():
        tensors = model.named_tensors()
        for k, name in enumerate(cfg.task_names):
            ops.check(f"{name}: evaluate error equals the reference",
                      reference.error_rate(tensors, k, st.corpus[name].test) == errors[k])
    ops.probe_digest = hashlib.sha256(
        json.dumps({"purity": repr(purity), "cosine": repr(cosine)}).encode()).hexdigest()


def check_outputs(model, cfg, corpus, errors, ops: Ops) -> dict:
    """Compare sampled class probabilities with the reference; return the digests."""
    tensors = model.named_tensors()
    h = hashlib.sha256(json.dumps([repr(e) for e in errors]).encode())
    probs_ok = signature_of(M.forward) == FORWARD_PARAMS
    if not probs_ok:
        ops.notes.add("probability check skipped: models.forward signature changed")
    else:
        worst = 0.0
        for k, name in enumerate(cfg.task_names):
            for ex in corpus[name].test[:SAMPLE_PER_TASK]:
                got = library_probs(model, cfg, ex.tokens, k)
                h.update(memoryview(got))
                worst = max(worst, float(np.max(np.abs(got - reference.class_probs(
                    tensors, k, ex.tokens)))))
        ops.check(f"class probabilities within {PROB_TOLERANCE} of the reference "
                  f"(worst {worst:.3g})", worst <= PROB_TOLERANCE)
    return {"params": params_digest(model), "eval": h.hexdigest()}
