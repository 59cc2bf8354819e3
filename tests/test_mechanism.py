"""A seconds-scale gate for the adversarial min-max on a two-task toy.

Two tasks share one label space. An input has 6 dimensions: the task's
one-hot in dimensions 0-1, then unit Gaussian noise in 2-5, with a weak
label signal of +-0.5 added to dimension 2. The label prior depends on the
task: label 1 has probability 0.85 in task 0 and 0.15 in task 1, so a
shared layer that keeps the task identity helps the label, and the
adversary has something to fight. The shared layer is tanh of a linear map
to width 3; with private paths each task also has a linear map of the input
to width 3, and the one label head reads the (private, shared) pair, as the
library's heads do. The discriminator is ``models.discriminate`` behind the
reversal node, the objective is ``train._combine`` and the update is
``train.sgd_step`` at lr 0.1 for 2,000 steps of 16 examples, alternating
between the tasks. Purity is the accuracy of ``train.fit_probe`` on the
shared features of held-out inputs (chance 0.5).

Measured on seeds 0-9 (the gate runs 0-4); each range is over the seeds:
- shared only: purity 0.941-0.998 at lambda 0 and 0.628-0.737 at lambda 1;
  label accuracy 0.824-0.885 and 0.649-0.727;
- private paths: purity 0.834-0.971 without the adversary (sp) and
  0.503-0.842 with it (asp), lower on every seed; asp's label accuracy is
  within 0.007 of sp's on every seed, against sp's spread of 0.053;
- ||S^T H||_F^2 per held-out example: 2227-3369 for asp at gamma 0 and
  0.002-0.33 at gamma 0.01, the default diff weight (a ratio of at most
  1.3e-4 on a seed). At gamma 1 training diverges: the linear private paths
  grow large under the adversary.
"""

from functools import cache
from typing import NamedTuple

import numpy as np

from advmtl import autodiff as ad
from advmtl import losses as L
from advmtl import models as M
from advmtl import nn
from advmtl import train as T
from advmtl.autodiff import Tape

import oracles

SEEDS = range(5)
PRIOR = (0.85, 0.15)  # P(label 1) in each task
SIGNAL, WIDTH = 0.5, 3
STEPS, LR, BATCH = 2000, 0.1, 16
# name -> (private paths, lambda, gamma)
RUNS = {"shared": (False, 0.0, 0.0), "shared_adv": (False, 1.0, 0.0),
        "sp": (True, 0.0, 0.0), "asp": (True, 1.0, 0.0), "asp_diff": (True, 1.0, 0.01)}


class Outcome(NamedTuple):
    purity: float
    accuracy: float
    orthogonality: float  # ||S^T H||_F^2 per held-out example; 0 without private paths


def _split(rng, n):
    """``n`` inputs and labels per task."""
    out = []
    for t, p in enumerate(PRIOR):
        y = (rng.random(n) < p).astype(np.intp)
        X = np.zeros((n, 6))
        X[:, t] = 1.0
        X[:, 2:] = rng.normal(size=(n, 4))
        X[:, 2] += SIGNAL * (2 * y - 1)
        out.append((X, y))
    return out


def _init(rng, private):
    shapes = {"shared.W": (6, WIDTH), "shared.b": (WIDTH,),
              "head.W": (2, 2 * WIDTH if private else WIDTH), "head.b": (2,),
              "disc.W": (2, WIDTH), "disc.b": (2,)}
    if private:
        for t in range(2):
            shapes[f"private.{t}.W"], shapes[f"private.{t}.b"] = (6, WIDTH), (WIDTH,)
    return M.ModelParams({name: nn.uniform_init(rng, s) for name, s in shapes.items()})


def _step(params, X, y, t, private, cfg):
    tape = Tape()
    bound = params.bind(tape)
    x = tape.constant(X)
    s = oracles.tanh(oracles.add(oracles.matmul(x, bound["shared.W"]), bound["shared.b"]))
    feature, l_diff = s, None
    if private:
        h = oracles.add(oracles.matmul(x, bound[f"private.{t}.W"]), bound[f"private.{t}.b"])
        feature = oracles.concat([h, s], axis=1)
        if cfg.diff_weight > 0:
            l_diff = ad.scale(L.diff_loss(s, h), 1.0 / len(y))
    l_ce = L.cross_entropy(nn.softmax_classify(feature, bound["head.W"], bound["head.b"]), y)
    rev = ad.gradient_reversal(s, cfg.adv_weight)
    l_adv = L.cross_entropy(M.discriminate(rev, bound["disc.W"], bound["disc.b"]), [t] * len(y))
    by_id = ad.backward(tape, T._combine(l_ce, l_adv, l_diff, t, cfg))
    T.sgd_step(params, {name: by_id[n.idx] for name, n in bound.items() if n.idx in by_id}, LR)


def _features(tensors, X, t, private):
    S = np.tanh(X @ tensors["shared.W"] + tensors["shared.b"])
    H = X @ tensors[f"private.{t}.W"] + tensors[f"private.{t}.b"] if private else None
    return S, H


@cache
def _outcomes(name: str) -> list[Outcome]:
    private, lam, gamma = RUNS[name]
    cfg = T.TrainConfig(adv_weight=lam, diff_weight=gamma)
    out = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        train, test = _split(rng, 200), _split(rng, 500)
        params = _init(rng, private)
        for step in range(STEPS):
            t = step % 2
            idx = rng.integers(len(train[t][1]), size=BATCH)
            _step(params, train[t][0][idx], train[t][1][idx], t, private, cfg)
        tensors = params.tensors
        probe = T.fit_probe(np.vstack([_features(tensors, X, t, private)[0]
                                       for t, (X, _) in enumerate(train)]),
                            [t for t, (_, y) in enumerate(train) for _ in y], 2)
        held_out = [_features(tensors, X, t, private) for t, (X, _) in enumerate(test)]
        purity = T.probe_accuracy(*probe, np.vstack([S for S, _ in held_out]),
                                  [t for t, (_, y) in enumerate(test) for _ in y])
        correct, orthogonality = 0, 0.0
        for (S, H), (_, y) in zip(held_out, test):
            feature = S if H is None else np.concatenate([H, S], axis=1)
            logits = feature @ tensors["head.W"].T + tensors["head.b"]
            correct += int(np.count_nonzero(np.argmax(logits, axis=1) == y))
            if H is not None:
                tape = Tape()
                orthogonality += float(L.diff_loss(tape.constant(S), tape.constant(H)).value)
        n = sum(len(y) for _, y in test)
        out.append(Outcome(purity, correct / n, orthogonality / n))
    return out


def _column(name, field):
    return np.array([getattr(o, field) for o in _outcomes(name)])


def test_adversary_lowers_shared_purity():
    plain, adv = _column("shared", "purity"), _column("shared_adv", "purity")
    # below lambda 0 on every seed, and below its whole seed range
    assert adv.max() < plain.min(), (plain, adv)
    # the toy has room: without private paths the scrubbed layer costs label accuracy
    assert _column("shared_adv", "accuracy").max() < _column("shared", "accuracy").min()


def test_private_paths_keep_accuracy_while_purity_drops():
    sp_acc, asp_acc = _column("sp", "accuracy"), _column("asp", "accuracy")
    spread = sp_acc.max() - sp_acc.min()
    assert np.all(np.abs(asp_acc - sp_acc) <= spread), (sp_acc, asp_acc)
    sp_pur, asp_pur = _column("sp", "purity"), _column("asp", "purity")
    assert np.all(asp_pur < sp_pur), (sp_pur, asp_pur)
    assert np.median(sp_pur - asp_pur) > 0.1, (sp_pur, asp_pur)


def test_diff_weight_lowers_shared_private_overlap():
    plain, penalized = _column("asp", "orthogonality"), _column("asp_diff", "orthogonality")
    assert np.all(penalized < 0.01 * plain), (plain, penalized)
