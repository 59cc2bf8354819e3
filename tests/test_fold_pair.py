"""The shared and private LSTM folds as one pair, in one process or two.

``nn._concurrent`` decides whether two layers' folds run at once, the
private one in the helper process; the tests force either answer through
it, and every number must be bitwise the same both ways.
"""

import gc
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
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


def served() -> tuple:
    """This process's helper and the number of requests it has answered."""
    helper = nn._helper
    return (helper, helper.served) if helper else (None, 0)


def force(monkeypatch, concurrent: bool):
    """Make every fold pair run concurrently or serially.

    Returns a check: whether the helper has answered a request since.
    """
    monkeypatch.setattr(nn, "_concurrent", lambda d: concurrent)
    before = served()
    return lambda: served() != before


class TestRule:
    @pytest.mark.parametrize("d, cpus, blas, want", [
        (128, {0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (200, {2, 5, 7}, {"OMP_NUM_THREADS": "1"}, True),
        (31, {0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (128, {3}, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (128, {0, 1}, {}, False),  # BLAS may run a thread per CPU
        (128, {0, 1}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        (32, {0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, True),
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
        force(monkeypatch, concurrent)
        params = self._inputs(12)
        want_value, want = self._run(params, False)
        on_helper = force(monkeypatch, concurrent)
        value, grads = self._run(params, True)
        assert on_helper() == concurrent
        assert value == want_value and grads.keys() == want.keys()
        for k, g in grads.items():
            assert g.tobytes() == want[k].tobytes(), k

    def test_callers_on_more_threads_than_cpus(self, monkeypatch):
        # one caller at a time sends its pair to the helper; the others fold
        # both layers themselves, or wait for the helper that holds their
        # fold's backward. A fresh helper is started by whichever comes first
        monkeypatch.setattr(nn, "_concurrent", lambda d: False)
        want = [self._run(self._inputs(20 + k), True) for k in range(6)]
        nn._stop_helper()
        on_helper = force(monkeypatch, True)
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
        assert on_helper()
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
    """Checkpoints, histories and evaluation outputs do not depend on where the pair folds."""

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
        on_helper = force(monkeypatch, True)
        assert self._train(case, tmp_path) == want
        assert on_helper()

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
        on_helper = force(monkeypatch, True)
        assert self._read(params, config, corpus) == want
        assert on_helper()


class TestPinnedNumbersConcurrent(test_train.TestPinnedNumbers):
    """The pinned digests, unedited, with every fold pair run in two processes."""

    @pytest.fixture(autouse=True)
    def _concurrent(self, monkeypatch):
        on_helper = force(monkeypatch, True)
        yield
        assert on_helper()


# Folds that fail where their W starts with the mark of a layer and phase.
# The same code patches this process's folds and, through HELPER_MAIN, the
# helper's, so either may raise what the serial path would.
FAILING_FOLDS = textwrap.dedent("""
    from advmtl.errors import NumericError, ShapeError

    MARKS = {11.0: ("shared", "forward"), 12.0: ("shared", "backward"),
             21.0: ("private", "forward"), 22.0: ("private", "backward")}
    init, backward, final = nn._LstmFold.__init__, nn._LstmFold.backward, nn._final_fold

    def failing(W, phase):
        layer, fails = MARKS.get(float(W.flat[0]), (None, None))
        if fails == phase == "forward":
            raise ShapeError(f"{layer} forward")
        if fails == phase == "backward":
            raise NumericError(f"{layer} backward")

    def fold_init(self, X, W, *rest):
        failing(W, "forward")
        init(self, X, W, *rest)

    def fold_backward(self, g, into=None):
        failing(self.W, "backward")
        return backward(self, g, into)

    def final_fold(X, W, *rest):
        failing(W, "forward")
        return final(X, W, *rest)
""")
PATCHES = {"fold_init": (nn._LstmFold, "__init__"), "fold_backward": (nn._LstmFold, "backward"),
           "final_fold": (nn, "_final_fold")}
HELPER_MAIN = ("import sys; sys.path.insert(0, sys.argv[1]); from advmtl import nn\n"
               + FAILING_FOLDS + textwrap.dedent("""
    nn._LstmFold.__init__, nn._LstmFold.backward = fold_init, fold_backward
    nn._final_fold = final_fold
    nn._serve(*map(int, sys.argv[2:]))
"""))
MARKS = {("shared", "forward"): 11.0, ("shared", "backward"): 12.0,
         ("private", "forward"): 21.0, ("private", "backward"): 22.0}


class TestWorkerErrors:
    @pytest.fixture(autouse=True)
    def _failing_folds(self, monkeypatch):
        """Install FAILING_FOLDS here and in a helper of its own, ended after the test."""
        scope = {"nn": nn}
        exec(FAILING_FOLDS, scope)
        for fn, (owner, name) in PATCHES.items():
            monkeypatch.setattr(owner, name, scope[fn])
        monkeypatch.setattr(nn, "_HELPER_MAIN", HELPER_MAIN)
        nn._stop_helper()
        yield
        nn._stop_helper()

    @staticmethod
    def _failing(monkeypatch, fails):
        """A model whose layers named in ``fails`` fail in that phase, until ``restore``."""
        params, config, corpus = _model("sp")
        names = {"shared": "shared.W", "private": "private.1.W"}
        kept = {layer: params.tensors[names[layer]].flat[0] for layer in fails}
        for layer, phase in fails.items():
            params.tensors[names[layer]].flat[0] = MARKS[layer, phase]

        def restore():
            for layer, value in kept.items():
                params.tensors[names[layer]].flat[0] = value

        released, release = [], Tape.release

        def spy_release(tape):
            released.append(tape)
            release(tape)

        monkeypatch.setattr(Tape, "release", spy_release)
        train = corpus[config.task_names[1]].train[:5]
        batch = D.Batch(task=1, sequences=[e.tokens for e in train],
                        labels=[e.label for e in train])
        return params, config, batch, released, restore

    @pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "concurrent"])
    @pytest.mark.parametrize("fails, error", [
        ({"shared": "forward", "private": "forward"}, "shared forward"),
        ({"private": "forward"}, "private forward"),
        ({"shared": "backward", "private": "backward"}, "shared backward"),
        ({"private": "backward"}, "private backward"),
    ])
    def test_the_shared_error_surfaces_first(self, monkeypatch, concurrent, fails, error):
        on_helper = force(monkeypatch, concurrent)
        params, config, batch, released, restore = self._failing(monkeypatch, fails)
        with pytest.raises((ShapeError, NumericError), match=f"^{error}$"):
            T._batch_grads(params, config, batch, T.TrainConfig())
        assert released and released[-1].swept  # the tape is released, swept or not
        assert on_helper() == concurrent
        # the helper is free again: the next step runs, in the same helper
        restore()
        before = served()
        T._batch_grads(params, config, batch, T.TrainConfig())
        after = served()
        assert after[0] is before[0] and (after[1] > before[1]) == concurrent

    @pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "concurrent"])
    @pytest.mark.parametrize("read", ["encode", "dump_activations"])
    @pytest.mark.parametrize("fails, error", [
        ({"shared": "forward", "private": "forward"}, "shared forward"),
        ({"private": "forward"}, "private forward"),
    ])
    def test_a_tape_free_fold_raises_the_shared_error_first(self, monkeypatch, concurrent, read,
                                                            fails, error):
        on_helper = force(monkeypatch, concurrent)
        params, config, batch, _, _ = self._failing(monkeypatch, fails)
        with pytest.raises(ShapeError, match=f"^{error}$"):
            getattr(M, read)(params, config, batch.sequences, batch.task)
        assert on_helper() == concurrent

    def test_the_worker_keeps_the_callers_error_state(self, monkeypatch):
        # numpy's error state is per process: each request carries the caller's.
        # The private layer's input term X @ W_x^T + b overflows in the add
        packing = nn.pack(np.array([3, 2]))
        X = np.ones((5, 1))
        overflowing = (np.pad(np.full((8, 1), 1e308), ((0, 0), (0, 2))), np.full(8, 1e308))
        layers = [overflowing, (np.zeros((8, 3)), np.zeros(8))]
        force(monkeypatch, False)
        with np.errstate(over="ignore"):
            want = nn.lstm_final_states(X, layers, packing)
        on_helper = force(monkeypatch, True)
        with np.errstate(over="ignore"):
            got = nn.lstm_final_states(X, layers, packing)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            nn.lstm_final_states(X, layers, packing)
        with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"):
            nn.lstm_final_states(X, layers, packing)
        assert on_helper()

    def test_a_diverging_step_warns_on_no_thread(self, monkeypatch):
        # the step's errstate(all="ignore") holds in both folds; the loss
        # turns non-finite at the heads, so the step ends in a NumericError
        on_helper = force(monkeypatch, True)
        params, config, corpus = _model("sp", d=128, e=8)
        cfg = T.TrainConfig(learning_rate=1e9, max_epochs=2, patience=2, seed=0, batch_size=8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, history = T.train_multitask(params, config, corpus, cfg)
        assert [w.message for w in caught] == []
        assert history.diverged and "not finite" in history.divergence.cause
        assert on_helper()


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
    assert nn._helper is not None  # this process's helper has started
    for jobs in (2, 1):
        result = T.grid_search(params, config, corpus, {"learning_rate": [0.1, 0.05]}, cfg,
                               jobs=jobs)
        digest = hashlib.sha256(b"".join(a.tobytes()
                                         for a in result.best_params.tensors.values()))
        print(jobs, result.best_index, result.cells, digest.hexdigest())
""")


def test_forked_grid_cells_start_their_own_worker():
    # a forked cell inherits the parent helper's pipe ends, closes them and
    # starts a helper of its own
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


STEADY_FAULTS = textwrap.dedent("""
    import resource
    import numpy as np
    from advmtl import autodiff as ad, nn

    def call(rng):
        lengths = rng.integers(4, 31, 16)
        packing = nn.pack(lengths)
        X = rng.uniform(-1, 1, (int(lengths.sum()), 200))
        tape = ad.Tape()
        layers = tuple((tape.leaf(rng.uniform(-0.1, 0.1, (800, 400))),
                        tape.leaf(rng.uniform(-0.1, 0.1, 800))) for _ in range(2))
        states = nn.lstm_encode(tape.leaf(X), layers, packing)
        ad.backward(tape, ad.sum_all(states))
        nn.lstm_final_states(X, [(W.value, b.value) for W, b in layers], packing)

    def faults():  # minor faults of this process and of its helper (field 10 of its stat)
        helper = 0
        if nn._helper is not None:
            with open(f"/proc/{nn._helper.proc.pid}/stat") as fh:
                helper = int(fh.read().rsplit(")", 1)[1].split()[7])
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt, helper

    for concurrent in (False, True):
        nn._concurrent = lambda d: concurrent
        rng = np.random.default_rng(0)
        for _ in range(3):
            call(rng)
        before = faults()
        for _ in range(5):
            call(rng)
        caller, helper = ((after - b) / 5 for after, b in zip(faults(), before))
        print(concurrent, caller)
    assert nn._helper.served
    print("helper", helper)
""")


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux") or not _glibc(),
                    reason="the allocator setting acts on glibc only")
def test_a_steady_state_fold_makes_no_page_faults():
    # a d = 200 pair's forward, backward and final states, serial and as the pair: freed
    # arrays stay in each process, so after warm-up no call faults memory in again, in
    # the caller or in the helper
    env = {k: v for k, v in os.environ.items()
           if k not in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")}
    env.update(OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", STEADY_FAULTS], env=env, text=True,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = dict(line.split() for line in proc.stdout.splitlines())
    assert faults.keys() == {"False", "True", "helper"}
    assert all(float(n) < 100 for n in faults.values()), faults


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _state(pid: int) -> str | None:
    """The state letter of process ``pid`` (``Z`` for a zombie), or None if there is none."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


CALLER = textwrap.dedent("""
    import os, sys
    import numpy as np
    from advmtl import nn

    nn._concurrent = lambda d: True
    rng = np.random.default_rng(0)
    layers = [(rng.uniform(-1, 1, (8, 3)), rng.uniform(-1, 1, 8)) for _ in range(2)]
    nn.lstm_final_states(rng.uniform(-1, 1, (5, 1)), layers, nn.pack(np.array([3, 2])))
    pid = nn._helper.proc.pid
    print(pid, *(os.readlink(f"/proc/{pid}/fd/{fd}") for fd in (0, 1, 2)), flush=True)
    if sys.argv[1] == "exception":
        raise RuntimeError("uncaught")
    if sys.argv[1] == "os._exit":
        os._exit(0)
""")

# A helper that kills itself when it folds a W that starts with 31.0.
DYING_MAIN = textwrap.dedent("""
    import os, signal, sys
    sys.path.insert(0, sys.argv[1])
    from advmtl import nn

    init = nn._LstmFold.__init__

    def fold_init(self, X, W, *rest):
        if W.flat[0] == 31.0:
            os.kill(os.getpid(), signal.SIGKILL)
        init(self, X, W, *rest)

    nn._LstmFold.__init__ = fold_init
    nn._serve(*map(int, sys.argv[2:]))
""")

KILLED = textwrap.dedent("""
    import os, signal, sys
    import numpy as np
    from advmtl import autodiff as ad, nn

    moment, nn._HELPER_MAIN = sys.argv[1], sys.argv[2]
    rng = np.random.default_rng(0)
    packing = nn.pack(np.array([3, 1, 5]))
    X = rng.uniform(-1, 1, (9, 2))
    layers = [(rng.uniform(-0.8, 0.8, (12, 5)), rng.uniform(-0.8, 0.8, 12)) for _ in range(2)]
    W_p, kept = layers[0][0], layers[0][0].flat[0]

    def forward():
        tape = ad.Tape()
        nodes = [tape.leaf(X), *(tape.leaf(a) for layer in layers for a in layer)]
        return tape, nodes, nn.lstm_encode(nodes[0], (nodes[1:3], nodes[3:]), packing)

    def backward(tape, nodes, states):
        grads = ad.backward(tape, ad.sum_all(ad.mul(states, states)))
        return [states.value.tobytes()] + [grads[n.idx].tobytes() for n in nodes]

    def kill(helper):
        os.kill(helper.proc.pid, signal.SIGKILL)
        helper.proc.wait()

    nn._concurrent = lambda d: False
    want = backward(*forward())
    W_p.flat[0] = 31.0
    want_dying = backward(*forward())
    W_p.flat[0] = kept
    nn._concurrent = lambda d: True
    assert backward(*forward()) == want
    first = nn._helper
    if moment == "between requests":
        kill(first)
        assert backward(*forward()) == want
    elif moment == "holding a fold":  # the helper holds the private fold for its backward
        pending = forward()
        kill(first)
        assert backward(*pending) == want
    else:  # the helper dies in the middle of the request
        W_p.flat[0] = 31.0
        assert backward(*forward()) == want_dying
        W_p.flat[0] = kept
    assert first.closed and first.proc.returncode is not None
    # the next pair starts a new helper
    assert backward(*forward()) == want
    assert nn._helper is not first and nn._helper.served
    print("ok")
""")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads the helper's /proc entries")
class TestHelperProcess:
    @pytest.mark.parametrize("ending", ["normal", "exception", "os._exit"])
    def test_no_helper_outlives_its_caller(self, ending):
        proc = subprocess.run([sys.executable, "-c", CALLER, ending], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == (1 if ending == "exception" else 0), proc.stderr
        pid, *std = proc.stdout.split()
        assert std == ["/dev/null"] * 3  # never the caller's stdin, stdout or stderr
        # the caller reaps its helper at exit; with no exit handlers run, the
        # helper still ends at the end of its request pipe
        gone = (None,) if ending != "os._exit" else (None, "Z")
        deadline = time.monotonic() + 20
        while _state(int(pid)) not in gone and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _state(int(pid)) in gone

    @pytest.mark.parametrize("moment", ["between requests", "holding a fold", "during a request"])
    def test_a_killed_helper_is_replaced(self, moment):
        # the call that finds the helper dead folds here, bitwise as serially,
        # and the next pair starts a new helper; nothing waits for the dead one
        proc = subprocess.run([sys.executable, "-c", KILLED, moment, DYING_MAIN],
                              env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr

    def test_forward_only_folds_are_dropped(self, monkeypatch):
        # models.forward's folds are freed with their tape, never run backward:
        # each one's key goes with a later request, and the helper drops it
        on_helper = force(monkeypatch, True)
        params, config, corpus = _model("sp")
        sentences = [ex.tokens for ex in corpus[config.task_names[1]].test]
        for k in range(500):
            tape = Tape()
            M.forward(tape, params.bind(tape), config, sentences[k % len(sentences)], 1,
                      want_disc=False)
        del tape
        gc.collect()
        M.encode(params, config, sentences[:2], 1)  # carries the last drops
        assert on_helper() and nn._helper.served >= 500
        assert nn._helper.live == 0
