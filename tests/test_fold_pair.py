"""The shared and private LSTM folds as one pair, on one thread or two.

``nn._concurrent`` decides whether two layers' folds run at once; the
tests force either answer through it, and every number must be bitwise
the same both ways.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest

from advmtl import autodiff as ad
from advmtl import data as D
from advmtl import models as M
from advmtl import nn
from advmtl import train as T
from advmtl.autodiff import Tape
from advmtl.errors import NumericError, ShapeError

import test_train

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def force(monkeypatch, concurrent: bool) -> list[str]:
    """Make every fold pair run concurrently or serially; returns the threads that built folds."""
    monkeypatch.setattr(nn, "_concurrent", lambda d: concurrent)
    names, init, final = [], nn._LstmFold.__init__, nn._final_fold

    def fold_init(self, *args, **kwargs):
        names.append(threading.current_thread().name)
        init(self, *args, **kwargs)

    def final_states(*args):
        names.append(threading.current_thread().name)
        return final(*args)

    monkeypatch.setattr(nn._LstmFold, "__init__", fold_init)
    monkeypatch.setattr(nn, "_final_fold", final_states)
    return names


def on_worker(names) -> bool:
    return any(name.startswith("advmtl-fold") for name in names)


class TestRule:
    @pytest.mark.parametrize("d, cpus, blas, want", [
        (128, {0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (200, {2, 5, 7}, {"OMP_NUM_THREADS": "1"}, True),
        (127, {0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (128, {3}, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (128, {0, 1}, {}, False),  # BLAS may run a thread per CPU
        (128, {0, 1}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ])
    def test_width_cpus_and_blas_threads(self, monkeypatch, d, cpus, blas, want):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in blas.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert nn._concurrent(d) is want


class TestLstmPair:
    LENGTHS = np.array([3, 1, 5])
    PACKING = nn.pack(LENGTHS)

    def _inputs(self, seed, d=3, e=2):
        rng = np.random.default_rng(seed)
        return {"xs": rng.uniform(-1, 1, (int(self.LENGTHS.sum()), e)),
                "W_p": rng.uniform(-0.8, 0.8, (4 * d, d + e)), "b_p": rng.uniform(-0.8, 0.8, 4 * d),
                "W_s": rng.uniform(-0.8, 0.8, (4 * d, d + e)), "b_s": rng.uniform(-0.8, 0.8, 4 * d)}

    def _loss(self, nodes, pair: bool):
        """A loss that reads every state and, more, each final state, as a step does."""
        xs = ad.row(nodes["xs"], self.PACKING.rows)
        private, shared = (nodes["W_p"], nodes["b_p"]), (nodes["W_s"], nodes["b_s"])
        if pair:
            states = nn.lstm_encode(xs, (private, shared), self.PACKING)
            d = states.value.shape[1] // 2
            H, S = ad.columns(states, 0, d), ad.columns(states, d, 2 * d)
            feature = ad.row(states, self.PACKING.last)
        else:  # two one-layer nodes
            S = nn.lstm_encode(xs, (shared,), self.PACKING)
            s_T = ad.row(S, self.PACKING.last)
            H = nn.lstm_encode(xs, (private,), self.PACKING)
            h_T = ad.row(H, self.PACKING.last)
            feature = ad.concat([h_T, s_T], axis=1)
        return ad.add(ad.add(ad.sum_all(ad.mul(feature, feature)), ad.sum_all(ad.tanh(S))),
                      ad.sum_all(ad.mul(H, S)))

    def _run(self, params, pair, frozen=()):
        t = Tape()
        nodes = {k: t.constant(v) if k in frozen else t.leaf(v) for k, v in params.items()}
        loss = self._loss(nodes, pair)
        gm = ad.backward(t, loss)
        return float(loss.value), {k: gm[n.idx] for k, n in nodes.items() if n.idx in gm}

    def test_gradients_match_finite_differences(self):
        def loss_fn(p, with_grads):
            value, grads = self._run(p, True)
            return value, grads if with_grads else None

        assert ad.finite_difference_check(loss_fn, self._inputs(11), 1e-5) < 1e-4

    @pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "concurrent"])
    def test_bitwise_equal_to_two_fold_nodes(self, monkeypatch, concurrent):
        names = force(monkeypatch, concurrent)
        params = self._inputs(12)
        want_value, want = self._run(params, False)
        names.clear()
        value, grads = self._run(params, True)
        assert on_worker(names) == concurrent
        assert value == want_value and grads.keys() == want.keys()
        for k, g in grads.items():
            assert g.tobytes() == want[k].tobytes(), k

    def test_callers_on_more_threads_than_cpus(self, monkeypatch):
        # each caller's pair writes its own array from two threads; a fresh
        # worker is started by whichever caller comes first
        monkeypatch.setattr(nn, "_concurrent", lambda d: True)
        monkeypatch.setattr(nn, "_worker", None)
        want = [self._run(self._inputs(20 + k), True) for k in range(6)]
        got, interval = {}, sys.getswitchinterval()

        def call(k):
            for _ in range(5):
                got.setdefault(k, []).append(self._run(self._inputs(20 + k), True))

        callers = [threading.Thread(target=call, args=(k,)) for k in range(6)]
        sys.setswitchinterval(1e-5)
        try:
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers) and sorted(got) == list(range(6))
        for k, runs in got.items():
            assert len(runs) == 5
            for value, grads in runs:
                assert value == want[k][0]
                assert all(g.tobytes() == want[k][1][n].tobytes() for n, g in grads.items())

    @pytest.mark.parametrize("frozen, folds_back", [(("xs", "W_s", "b_s"), 1), (("xs",), 2)])
    def test_a_fold_that_needs_no_gradient_runs_no_backward(self, monkeypatch, frozen,
                                                           folds_back):
        backward, calls = nn._LstmFold.backward, []

        def spy(self, g):
            calls.append(self.W)
            return backward(self, g)

        monkeypatch.setattr(nn._LstmFold, "backward", spy)
        params = self._inputs(13)
        _, grads = self._run(params, True, frozen)
        assert len(calls) == folds_back
        assert not set(frozen) & grads.keys()

    def test_halves_must_be_equally_wide(self):
        params = self._inputs(14)
        t = Tape()
        nodes = {k: t.leaf(v) for k, v in params.items()}
        with pytest.raises(ShapeError):
            nn.lstm_encode(nodes["xs"], ((nodes["W_p"], t.leaf(np.zeros(8))),
                                         (nodes["W_s"], nodes["b_s"])), self.PACKING)


def _corpus(unlabeled=20):
    spec = D.SynthSpec(tasks=2, sentences_per_task=40, unlabeled_per_task=unlabeled,
                       min_len=4, max_len=9, seed=4)
    corpus, vocab = D.encode_corpus(D.generate_synthetic(spec)[0])
    return corpus, vocab, tuple(sorted(corpus))


def _model(scheme, d=6, e=5, seed=2):
    corpus, vocab, names = _corpus()
    config = M.ModelConfig(scheme=scheme, task_names=names, classes=(2, 2),
                           hidden_size=d, embed_size=e, vocab_size=len(vocab))
    return M.init_model(config, seed=seed), config, corpus


TRAINING = {
    "sp": ("sp", {}),
    "asp-unlabeled": ("asp", dict(use_unlabeled=True)),
    "alternating": ("asp", dict(alternating=True)),
    "diff-batch": ("asp", dict(diff_mode="batch")),
    "transfer-bc": ("sp", {}),
}


class TestSerialEqualsConcurrent:
    """Checkpoints, histories and evaluation outputs do not depend on the fold pair's threads."""

    @staticmethod
    def _train(case, tmp_path):
        scheme, fields = TRAINING[case]
        params, config, corpus = _model(scheme)
        cfg = T.TrainConfig(learning_rate=0.2, adv_weight=0.1, diff_weight=0.1, max_epochs=2,
                            patience=2, seed=4, batch_size=6, **fields)
        if case == "transfer-bc":
            name = config.task_names[1]
            params, config, history, _ = T.train_transfer(
                params, corpus[name], "bc", cfg, config.vocab_size, model_seed=3)
        else:
            params, history = T.train_multitask(params, config, corpus, cfg)
        M.save_checkpoint(tmp_path / "model.bin", params, config)
        history.to_csv(tmp_path / "history.csv")
        return (tmp_path / "model.bin").read_bytes(), (tmp_path / "history.csv").read_bytes()

    @pytest.mark.parametrize("case", TRAINING)
    def test_training(self, monkeypatch, tmp_path, case):
        force(monkeypatch, False)
        want = self._train(case, tmp_path)
        names = force(monkeypatch, True)
        assert self._train(case, tmp_path) == want
        assert on_worker(names)

    @staticmethod
    def _read(params, config, corpus):
        errors = [T.evaluate(params, config, corpus[name].test, k)
                  for k, name in enumerate(config.task_names)]
        dev = [ex.tokens for ex in corpus[config.task_names[0]].dev]
        enc = M.encode(params, config, dev, 0)
        dumped = [a.tobytes() for a in M.dump_activations(params, config, dev, 0)]
        return (errors, [a.tobytes() for a in (enc.s_T, enc.h_T, enc.class_probs,
                                               enc.disc_probs)], dumped,
                repr(T.probe_shared_purity(params, config, corpus, iters=50)),
                repr(T.shared_private_cosine(params, config, corpus)))

    def test_evaluate_probe_and_cosine(self, monkeypatch):
        params, config, corpus = _model("asp", seed=5)
        T.train_multitask(params, config, corpus, T.TrainConfig(learning_rate=0.3, max_epochs=1,
                                                                seed=1))
        force(monkeypatch, False)
        want = self._read(params, config, corpus)
        names = force(monkeypatch, True)
        assert self._read(params, config, corpus) == want
        assert on_worker(names)


class TestPinnedNumbersConcurrent(test_train.TestPinnedNumbers):
    """The pinned digests, unedited, with every fold pair run on two threads."""

    @pytest.fixture(autouse=True)
    def _concurrent(self, monkeypatch):
        names = force(monkeypatch, True)
        yield
        assert on_worker(names)


class TestWorkerErrors:
    @staticmethod
    def _failing(monkeypatch, fails):
        """Make the fold of each layer named in ``fails`` raise, in forward or backward."""
        init, backward, final = nn._LstmFold.__init__, nn._LstmFold.backward, nn._final_fold
        params, config, corpus = _model("sp")
        layer = {id(params.tensors["shared.W"]): "shared",
                 id(params.tensors["private.1.W"]): "private"}

        def fold_init(self, X, W, b, *rest):
            if fails.get(layer.get(id(W))) == "forward":
                raise ShapeError(f"{layer[id(W)]} forward")
            init(self, X, W, b, *rest)

        def fold_backward(self, g):
            if fails.get(layer.get(id(self.W))) == "backward":
                raise NumericError(f"{layer[id(self.W)]} backward")
            return backward(self, g)

        def final_fold(X, W, b, packing):
            if fails.get(layer.get(id(W))) == "forward":
                raise ShapeError(f"{layer[id(W)]} forward")
            return final(X, W, b, packing)

        monkeypatch.setattr(nn._LstmFold, "__init__", fold_init)
        monkeypatch.setattr(nn._LstmFold, "backward", fold_backward)
        monkeypatch.setattr(nn, "_final_fold", final_fold)
        released, release = [], Tape.release

        def spy_release(tape):
            released.append(tape)
            release(tape)

        monkeypatch.setattr(Tape, "release", spy_release)
        train = corpus[config.task_names[1]].train[:5]
        batch = D.Batch(task=1, sequences=[e.tokens for e in train],
                        labels=[e.label for e in train])
        return params, config, batch, released

    @pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "concurrent"])
    @pytest.mark.parametrize("fails, error", [
        ({"shared": "forward", "private": "forward"}, "shared forward"),
        ({"private": "forward"}, "private forward"),
        ({"shared": "backward", "private": "backward"}, "shared backward"),
        ({"private": "backward"}, "private backward"),
    ])
    def test_the_shared_error_surfaces_first(self, monkeypatch, concurrent, fails, error):
        monkeypatch.setattr(nn, "_concurrent", lambda d: concurrent)
        params, config, batch, released = self._failing(monkeypatch, fails)
        with pytest.raises((ShapeError, NumericError), match=f"^{error}$"):
            T._batch_grads(params, config, batch, T.TrainConfig())
        assert released and released[-1].swept  # the tape is released, swept or not
        # the worker is free again: the next step runs
        monkeypatch.undo()
        monkeypatch.setattr(nn, "_concurrent", lambda d: concurrent)
        T._batch_grads(params, config, batch, T.TrainConfig())

    @pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "concurrent"])
    @pytest.mark.parametrize("read", ["encode", "dump_activations"])
    @pytest.mark.parametrize("fails, error", [
        ({"shared": "forward", "private": "forward"}, "shared forward"),
        ({"private": "forward"}, "private forward"),
    ])
    def test_a_tape_free_fold_raises_the_shared_error_first(self, monkeypatch, concurrent, read,
                                                            fails, error):
        monkeypatch.setattr(nn, "_concurrent", lambda d: concurrent)
        params, config, batch, _ = self._failing(monkeypatch, fails)
        with pytest.raises(ShapeError, match=f"^{error}$"):
            getattr(M, read)(params, config, batch.sequences, batch.task)

    def test_the_worker_keeps_the_callers_error_state(self, monkeypatch):
        # numpy's error state is per context, and a fresh thread's is the default
        monkeypatch.setattr(nn, "_concurrent", lambda d: True)
        log_zero = lambda: np.log(np.zeros(2))  # noqa: E731
        with np.errstate(divide="ignore"):
            assert np.isneginf(nn._each([log_zero, log_zero], 128)[0]).all()
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            nn._each([log_zero, lambda: None], 128)

    def test_a_diverging_step_warns_on_no_thread(self, monkeypatch):
        # the step's errstate(all="ignore") holds in both folds; the loss
        # turns non-finite at the heads, so the step ends in a NumericError
        names = force(monkeypatch, True)
        params, config, corpus = _model("sp", d=128, e=8)
        cfg = T.TrainConfig(learning_rate=1e9, max_epochs=2, patience=2, seed=0, batch_size=8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, history = T.train_multitask(params, config, corpus, cfg)
        assert [w.message for w in caught] == []
        assert history.diverged and "not finite" in history.divergence.cause
        assert on_worker(names)


FORKED_GRID = textwrap.dedent("""
    import hashlib
    from advmtl import data as D, models as M, nn, train as T

    nn._concurrent = lambda d: True
    spec = D.SynthSpec(tasks=2, sentences_per_task=24, min_len=3, max_len=8, seed=3)
    corpus, vocab = D.encode_corpus(D.generate_synthetic(spec)[0])
    names = tuple(sorted(corpus))
    config = M.ModelConfig("sp", names, (2, 2), hidden_size=128, embed_size=8,
                           vocab_size=len(vocab))
    params = M.init_model(config, seed=1)
    cfg = T.TrainConfig(learning_rate=0.1, max_epochs=1, patience=1, seed=0)
    T.train_multitask(params.copy(), config, corpus, cfg)
    assert nn._worker is not None  # this process's worker thread has started
    for jobs in (2, 1):
        result = T.grid_search(params, config, corpus, {"learning_rate": [0.1, 0.05]}, cfg,
                               jobs=jobs)
        digest = hashlib.sha256(b"".join(a.tobytes()
                                         for a in result.best_params.tensors.values()))
        print(jobs, result.best_index, result.cells, digest.hexdigest())
""")


def test_forked_grid_cells_start_their_own_worker():
    # a forked cell inherits the worker's executor but not its thread
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-c", FORKED_GRID], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=300)
    finally:  # a hung cell would outlive the script: end its whole session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    assert proc.returncode == 0, err
    two, one = out.splitlines()
    assert two.split(" ", 1) == ["2", one.split(" ", 1)[1]]
