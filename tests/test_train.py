import hashlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from advmtl import autodiff as ad
from advmtl import data as D
from advmtl import models as M
from advmtl import train as T
from advmtl.autodiff import Tape
from advmtl.errors import ConfigError, ContractError, InputError, NumericError

import oracles

def toy_task(seed=0, n_train=200, n_dev=100, n_test=100, name="toy"):
    """Linearly separable single task: all tokens share the sentence's sign."""
    rng = np.random.default_rng(seed)
    pos_pool = list(range(2, 7))
    neg_pool = list(range(7, 12))

    def make(n):
        out = []
        for _ in range(n):
            label = int(rng.integers(2))
            pool = pos_pool if label else neg_pool
            out.append(D.Example([int(rng.choice(pool)) for _ in range(4)], label))
        return out

    return D.TaskDataset(name=name, n_classes=2, train=make(n_train),
                         dev=make(n_dev), test=make(n_test))


def toy_model(scheme="fs", K=1, d=8, seed=0, vocab=12, emb_scale=1.0):
    config = M.ModelConfig(scheme=scheme, task_names=tuple(f"t{i}" for i in range(K))
                           if K > 1 else ("toy",),
                           classes=(2,) * K, hidden_size=d, embed_size=d,
                           vocab_size=vocab)
    params = M.init_model(config, seed=seed)
    params.tensors["embeddings"][...] = np.random.default_rng(99).normal(0.0, emb_scale,
                                                                          (vocab, d))
    return params, config


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", 0.0), ("adv_weight", float("nan")), ("adv_weight", float("inf")),
        ("adv_weight", -0.1), ("diff_weight", float("nan")), ("diff_weight", float("inf")),
        ("clip_norm", float("nan")), ("clip_norm", 0.0), ("seed", -1),
        # counts are plain ints: a float or a bool is no count
        ("batch_size", 2.5), ("max_epochs", 2.0), ("seed", 1.5), ("patience", 1.5),
        ("batch_size", True), ("max_epochs", True),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(ConfigError, match=field):
            T.TrainConfig(**{field: value})

    def test_infinite_clip_norm_means_no_clipping(self):
        assert T.TrainConfig(clip_norm=float("inf")).clip_norm == float("inf")


class TestSgdStep:
    def _params(self):
        params, _ = toy_model()
        return params

    def test_zero_gradients_unchanged(self):
        params = self._params()
        before = {n: a.copy() for n, a in params.named_tensors().items()}
        grads = {n: np.zeros_like(a) for n, a in params.named_tensors().items()}
        T.sgd_step(params, grads, lr=0.5, clip_norm=5.0)
        for n, a in params.named_tensors().items():
            npt.assert_array_equal(a, before[n])

    def test_basic_arithmetic(self):
        params = self._params()
        params.tensors["shared.b"][...] = 1.0
        grads = {"shared.b": np.full_like(params.tensors["shared.b"], 0.5)}
        T.sgd_step(params, grads, lr=0.01)
        npt.assert_allclose(params.tensors["shared.b"], 0.995, rtol=0, atol=1e-15)

    def test_global_norm_clipping_halves(self):
        params = self._params()
        params.tensors["shared.b"][...] = 0.0
        g = np.zeros_like(params.tensors["shared.b"])
        g[0] = 10.0  # global norm 10, clip 5 -> effective gradient 5
        T.sgd_step(params, {"shared.b": g}, lr=1.0, clip_norm=5.0)
        assert params.tensors["shared.b"][0] == -5.0

    def test_nan_gradient_names_parameter(self):
        params = self._params()
        g = np.zeros_like(params.tensors["shared.W"])
        g[0, 0] = np.nan
        with pytest.raises(NumericError, match="shared.W"):
            T.sgd_step(params, {"shared.W": g}, lr=0.1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gradient_names_the_first_bad_parameter(self, bad):
        params = self._params()
        before = {n: a.tobytes() for n, a in params.named_tensors().items()}
        grads = {n: np.ones_like(params.tensors[n]) for n in ("shared.b", "shared.W", "head.0.b")}
        grads["shared.W"][1, 2] = bad
        grads["head.0.b"][0] = np.nan
        with pytest.raises(NumericError, match="'shared.W'"):
            T.sgd_step(params, grads, lr=0.1)
        assert all(a.tobytes() == before[n] for n, a in params.named_tensors().items())

    @pytest.mark.parametrize("clip_norm", [5.0, float("inf")])
    def test_finite_gradient_whose_square_overflows_is_no_error(self, clip_norm):
        params = self._params()
        W = params.tensors["shared.W"]
        before = W.copy()
        g = np.zeros_like(W)
        g[0, 0] = 1e200  # finite, but its square is inf
        # the norm is still 1e200: 1e200 > 5 clips the step to norm lr * 5;
        # 1e200 > inf is false, so no clipping
        want = W - (0.1 * (5.0 / 1e200 if clip_norm == 5.0 else 1.0)) * g
        T.sgd_step(params, {"shared.W": g}, lr=0.1, clip_norm=clip_norm)
        assert W.tobytes() == want.tobytes()
        if clip_norm == 5.0:
            assert np.linalg.norm(before - W) == pytest.approx(0.1 * 5.0, rel=1e-12)

    def test_sum_of_finite_squares_that_overflows_is_clipped(self):
        params = self._params()
        before = {n: a.copy() for n, a in params.named_tensors().items()}
        grads = {"shared.W": np.full_like(params.tensors["shared.W"], 5.4e152),
                 "shared.b": np.full_like(params.tensors["shared.b"], 2.1e153)}
        grads["shared.b"][0] *= -1
        # each tensor's sum of squares is finite, only their total overflows
        assert all(np.isfinite(np.sum(np.square(g))) for g in grads.values())
        T.sgd_step(params, grads, lr=0.1, clip_norm=2.0)
        moved = np.sqrt(sum(np.sum(np.square(before[n] - params.tensors[n])) for n in grads))
        assert moved == pytest.approx(0.1 * 2.0, rel=1e-9)

    def test_frozen_gradient_rejected(self):
        params = self._params()
        params.frozen = frozenset({"shared.W"})
        with pytest.raises(ContractError, match="shared.W"):
            T.sgd_step(params, {"shared.W": np.zeros_like(params.tensors["shared.W"])}, lr=0.1)

    def test_zero_lr_bitwise_unchanged(self):
        params = self._params()
        before = {n: a.tobytes() for n, a in params.named_tensors().items()}
        grads = {n: np.random.default_rng(0).normal(size=a.shape)
                 for n, a in params.named_tensors().items()}
        for _ in range(3):
            T.sgd_step(params, grads, lr=0.0, clip_norm=float("inf"))
        for n, a in params.named_tensors().items():
            assert a.tobytes() == before[n]

    def test_step_changes_exactly_the_trainable_set(self):
        params = self._params()
        params.frozen = frozenset({"shared.W", "shared.b"})
        before = {n: a.tobytes() for n, a in params.named_tensors().items()}
        trainable = set(params.named_tensors()) - params.frozen
        grads = {n: np.ones_like(a) for n, a in params.named_tensors().items()
                 if n in trainable}
        T.sgd_step(params, grads, lr=0.1)
        for n, a in params.named_tensors().items():
            changed = a.tobytes() != before[n]
            assert changed == (n in trainable)


class TestRowSparseStep:
    def _grads(self, params):
        rng = np.random.default_rng(3)
        rows = ad.RowGrad(np.array([2, 5, 7]), rng.normal(size=(3, 8)), (12, 8))
        return {"embeddings": rows, "shared.b": rng.normal(size=params.tensors["shared.b"].shape)}

    def _step_both(self, clip_norm):
        sparse_params, dense_params = toy_model()[0], toy_model()[0]
        grads = self._grads(sparse_params)
        T.sgd_step(sparse_params, grads, lr=0.1, clip_norm=clip_norm)
        T.sgd_step(dense_params, {n: np.asarray(g) for n, g in grads.items()},
                   lr=0.1, clip_norm=clip_norm)
        return sparse_params.named_tensors(), dense_params.named_tensors()

    def test_equals_dense_step_bitwise_without_clipping(self):
        sparse, dense = self._step_both(clip_norm=float("inf"))
        for name in dense:
            assert sparse[name].tobytes() == dense[name].tobytes(), name

    def test_equals_dense_step_when_clipping(self):
        sparse, dense = self._step_both(clip_norm=0.1)
        assert not np.array_equal(sparse["embeddings"], toy_model()[0].tensors["embeddings"])
        for name in dense:
            npt.assert_allclose(sparse[name], dense[name], rtol=0, atol=1e-12, err_msg=name)

    def test_nan_row_names_embeddings(self):
        params, _ = toy_model()
        grads = self._grads(params)
        grads["embeddings"].rows[1, 4] = np.nan
        with pytest.raises(NumericError, match="embeddings"):
            T.sgd_step(params, grads, lr=0.1)


class TestPrunedBackward:
    def _grads(self, freeze_embeddings):
        spec = D.SynthSpec(tasks=2, sentences_per_task=20, seed=2)
        corpus, vocab = D.encode_corpus(D.generate_synthetic(spec)[0])
        names = tuple(sorted(corpus))
        config = M.ModelConfig(scheme="asp", task_names=names, classes=(2, 2),
                               hidden_size=4, embed_size=4, vocab_size=len(vocab))
        params = M.init_model(config, seed=3, freeze_embeddings=freeze_embeddings)
        batch = D.Batch(task=1, sequences=[e.tokens for e in corpus[names[1]].train[:4]],
                        labels=[e.label for e in corpus[names[1]].train[:4]])
        return T._batch_grads(params, config, batch, T.TrainConfig(seed=0))[1]

    def test_only_used_tensors_get_gradients(self):
        grads = self._grads(freeze_embeddings=False)
        assert set(grads) == {"embeddings", "shared.W", "shared.b", "private.1.W",
                              "private.1.b", "head.1.W", "head.1.b", "disc.W", "disc.b"}
        assert isinstance(grads["embeddings"], ad.RowGrad)

    def test_frozen_embeddings_run_no_lookup_vjp(self, monkeypatch):
        calls = []
        take_rows = ad.take_rows

        def spy(a, indices):
            node = take_rows(a, indices)
            vjp = node.tape._vjps[node.idx]
            node.tape._vjps[node.idx] = lambda g: calls.append(1) or vjp(g)
            return node

        monkeypatch.setattr(ad, "take_rows", spy)
        assert "embeddings" not in self._grads(freeze_embeddings=True)
        assert calls == []
        assert "embeddings" in self._grads(freeze_embeddings=False)
        assert len(calls) == 1  # one lookup for the whole batch


class TestStepGraph:
    """The number of tape nodes one asp training step records, pinned.

    A K = 2 asp model binds 13 tensors: the table, the shared, both private
    and both head layers, and the discriminator. A labeled step adds the
    lookup and its permutation into packed order, two LSTM folds (each a
    fold node and a final-row node), the concatenation, the head's
    classifier, the reversal, the discriminator's classifier, two
    cross-entropies, the two scattered state blocks, the diff loss and its
    1/B scale, and _combine's weighted sum: 30 nodes. An unlabeled step
    adds the lookup and its permutation, the shared fold, the reversal,
    the discriminator and its cross-entropy, and _combine returns that
    term: 20. A classifier split into an affine and a softmax node changes
    both.
    """

    @pytest.mark.parametrize("unlabeled, nodes", [(False, 30), (True, 20)])
    def test_nodes_per_step(self, monkeypatch, unlabeled, nodes):
        corpus, vocab, names = ragged_corpus()
        config = M.ModelConfig(scheme="asp", task_names=names, classes=(2, 2),
                               hidden_size=4, embed_size=3, vocab_size=len(vocab))
        train = corpus[names[1]].train[:4]
        batch = D.Batch(task=1, sequences=[e.tokens for e in train],
                        labels=None if unlabeled else [e.label for e in train])
        lengths, backward = [], ad.backward

        def spy(tape, loss):
            lengths.append(len(tape))
            return backward(tape, loss)

        monkeypatch.setattr(ad, "backward", spy)
        T._batch_grads(M.init_model(config, seed=3), config, batch, T.TrainConfig(seed=0))
        assert lengths == [nodes]


def named_grads(tape, bound, total):
    """Gradients of ``total`` by parameter name, for the parameters it reaches."""
    by_id = ad.backward(tape, total)
    return {name: by_id[node.idx] for name, node in bound.items() if node.idx in by_id}


def ragged_corpus(seed=2, unlabeled=0):
    """Two synthetic tasks whose sentences have 4 to 9 tokens."""
    spec = D.SynthSpec(tasks=2, sentences_per_task=40, unlabeled_per_task=unlabeled,
                       min_len=4, max_len=9, seed=seed)
    corpus, vocab = D.encode_corpus(D.generate_synthetic(spec)[0])
    return corpus, vocab, tuple(sorted(corpus))


class TestBatchedTerms:
    """One graph per batch gives the per-sentence oracle's losses and gradients."""

    def _model(self, scheme):
        corpus, vocab, names = ragged_corpus()
        config = M.ModelConfig(scheme=scheme, task_names=names, classes=(2, 2),
                               hidden_size=4, embed_size=3, vocab_size=len(vocab))
        return M.init_model(config, seed=3), config, corpus, names

    def _batch(self, corpus, names, size, unlabeled):
        train = corpus[names[1]].train
        if size == "one":
            seqs, labels = [train[0].tokens], [train[0].label]
        else:  # ragged, with a one-token sentence in the middle
            seqs = [e.tokens for e in train[:5]]
            seqs.insert(2, train[5].tokens[:1])
            labels = [e.label for e in train[:6]]
        assert size == "one" or len({len(q) for q in seqs}) > 2
        return D.Batch(task=1, sequences=seqs, labels=None if unlabeled else labels)

    def _terms(self, build, params, config, batch, cfg):
        tape = Tape()
        bound = params.bind(tape)
        terms = build(bound, config, batch, cfg)
        total = T._combine(*terms, batch.task, cfg)
        return terms, total, named_grads(tape, bound, total)

    @pytest.mark.parametrize("size", ["ragged", "one"])
    @pytest.mark.parametrize("unlabeled", [False, True])
    @pytest.mark.parametrize("diff_mode", ["sentence", "batch"])
    @pytest.mark.parametrize("scheme", ["fs", "sp", "asp"])
    def test_matches_per_sentence_oracle(self, scheme, diff_mode, unlabeled, size):
        params, config, corpus, names = self._model(scheme)
        batch = self._batch(corpus, names, size, unlabeled)
        cfg = T.TrainConfig(adv_weight=0.3, diff_weight=0.7, diff_mode=diff_mode, seed=0)
        if unlabeled and scheme != "asp":
            for build in (T._batch_terms, oracles.batch_terms):
                with pytest.raises(ContractError):
                    self._terms(build, params, config, batch, cfg)
            return
        terms, total, grads = self._terms(T._batch_terms, params, config, batch, cfg)
        want_terms, want_total, want = self._terms(oracles.batch_terms, params, config,
                                                   batch, cfg)
        for got_t, want_t in zip(terms, want_terms):
            assert (got_t is None) == (want_t is None)
            if got_t is not None:
                assert abs(float(got_t.value) - float(want_t.value)) < 1e-10
        assert abs(float(total.value) - float(want_total.value)) < 1e-10
        assert set(grads) == set(want)
        for name, g in grads.items():
            npt.assert_allclose(np.asarray(g), np.asarray(want[name]), rtol=0, atol=1e-10,
                                err_msg=name)
        npt.assert_array_equal(grads["embeddings"].ids, want["embeddings"].ids)

    def test_one_graph_per_batch(self):
        params, config, corpus, names = self._model("asp")
        batch = self._batch(corpus, names, "ragged", False)
        tape = Tape()
        bound = params.bind(tape)
        T._combine(*T._batch_terms(bound, config, batch, T.TrainConfig()), 1,
                   T.TrainConfig())
        assert len(tape) - len(bound) < 40  # per-sentence graphs took over 150 nodes

    def test_padding_reaches_no_gradient(self):
        params, config, corpus, names = self._model("asp")
        batch = self._batch(corpus, names, "ragged", False)
        real = np.unique(np.concatenate(batch.sequences))
        assert D.PAD_ID not in real
        terms, total, grads = self._terms(T._batch_terms, params, config, batch,
                                          T.TrainConfig())
        npt.assert_array_equal(grads["embeddings"].ids, real)
        # the table row a padding token would read changes nothing
        params.tensors["embeddings"][D.PAD_ID] = 7.0
        _, total2, grads2 = self._terms(T._batch_terms, params, config, batch,
                                        T.TrainConfig())
        assert total2.value.tobytes() == total.value.tobytes()
        for name, g in grads.items():
            assert np.asarray(grads2[name]).tobytes() == np.asarray(g).tobytes(), name
        # id 0 is an ordinary token when a sentence holds it
        batch.sequences[0] = [D.PAD_ID] + batch.sequences[0]
        _, total3, grads3 = self._terms(T._batch_terms, params, config, batch,
                                        T.TrainConfig())
        assert D.PAD_ID in grads3["embeddings"].ids
        assert total3.value != total.value

    def test_ragged_training_is_bitwise_deterministic(self, tmp_path):
        corpus, vocab, names = ragged_corpus(seed=4, unlabeled=20)

        def run(path):
            config = M.ModelConfig(scheme="asp", task_names=names, classes=(2, 2),
                                   hidden_size=5, embed_size=4, vocab_size=len(vocab))
            params = M.init_model(config, seed=2)
            cfg = T.TrainConfig(learning_rate=0.2, max_epochs=2, patience=2, seed=4,
                                batch_size=6, use_unlabeled=True)
            best, _ = T.train_multitask(params, config, corpus, cfg)
            M.save_checkpoint(path, best, config)
            return path.read_bytes()

        assert run(tmp_path / "a.bin") == run(tmp_path / "b.bin")


class TestPinnedNumbers:
    """Digests of a short training run, pinned from an earlier build.

    A change that claims to leave every number as it was must keep them.
    They are specific to the build they were taken on: another numpy or
    BLAS may round a float64 sum differently in the last bit.
    """

    DIGESTS = {
        "sentence": "a693d09f71d45fe779747411967c2d68df110df49775ec31020bd599ffcb02f2",
        "batch": "0596a88590b675eeddcb6f2f0be6a0148d31960049991da9b2037859158b63e4",
        "dump_activations": "23b49008b9438dfe388e0a422c7991a3ec73f4b755fc25a21412d7248bf6b676",
    }

    @staticmethod
    def _train(diff_mode, path):
        corpus, vocab, names = ragged_corpus(seed=4, unlabeled=20)
        config = M.ModelConfig(scheme="asp", task_names=names, classes=(2, 2),
                               hidden_size=6, embed_size=5, vocab_size=len(vocab))
        cfg = T.TrainConfig(learning_rate=0.2, adv_weight=0.1, diff_weight=0.1, max_epochs=2,
                            patience=2, seed=4, batch_size=6, use_unlabeled=True,
                            diff_mode=diff_mode)
        best, _ = T.train_multitask(M.init_model(config, seed=2), config, corpus, cfg)
        M.save_checkpoint(path, best, config)
        return best, config, corpus, names

    def _check(self, key, data):
        got = hashlib.sha256(data).hexdigest()
        assert got == self.DIGESTS[key], f"{key} digest {got} under numpy {np.__version__}"

    @pytest.mark.parametrize("diff_mode", ["sentence", "batch"])
    def test_checkpoint(self, tmp_path, diff_mode):
        self._train(diff_mode, tmp_path / "model.bin")
        self._check(diff_mode, (tmp_path / "model.bin").read_bytes())

    def test_dump_activations(self, tmp_path):
        best, config, corpus, names = self._train("sentence", tmp_path / "model.bin")
        d = config.hidden_size
        dumped = [M.dump_activations(best, config, [ex.tokens], task)
                  for task, name in enumerate(names) for ex in corpus[name].test[:3]]
        # each token's shared states, private states and class probabilities, in order
        self._check("dump_activations", b"".join(
            np.concatenate([states[:, -d:], states[:, :d], probs], axis=1).tobytes()
            for states, probs in dumped))


class TestTrainingLoop:
    def test_fixed_batch_loss_monotone(self):
        ds = toy_task()
        params, config = toy_model()
        batch = D.Batch(task=0, sequences=[e.tokens for e in ds.train[:16]],
                        labels=[e.label for e in ds.train[:16]])
        cfg = T.TrainConfig(learning_rate=0.001, max_epochs=1, seed=0)
        losses = []
        for _ in range(50):
            (l_ce, l_adv, l_diff), grads = T._batch_grads(params, config, batch, cfg)
            assert l_adv is None and l_diff is None  # fs: the loss is the task CE alone
            losses.append(l_ce)
            T.sgd_step(params, grads, cfg.learning_rate, cfg.clip_norm)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_toy_task_reaches_low_dev_error(self):
        ds = toy_task()
        params, config = toy_model()
        cfg = T.TrainConfig(learning_rate=0.3, max_epochs=20, patience=20,
                            batch_size=16, seed=0)
        best, hist = T.train_multitask(params, config, {"toy": ds}, cfg)
        assert hist.mean_dev_error(hist.best_epoch) < 0.05

    def test_determinism_bitwise(self, tmp_path):
        ds = toy_task()

        def run(path):
            params, config = toy_model()
            cfg = T.TrainConfig(learning_rate=0.1, max_epochs=3, patience=3, seed=4)
            best, hist = T.train_multitask(params, config, {"toy": ds}, cfg)
            hist.to_csv(path)
            ckpt = tmp_path / f"{path.name}.bin"
            M.save_checkpoint(ckpt, best, config)
            return path.read_text(), ckpt.read_bytes()

        a = run(tmp_path / "a.csv")
        b = run(tmp_path / "b.csv")
        assert a == b

    def test_early_stop_returns_best_checkpoint(self):
        ds = toy_task()
        params, config = toy_model()
        cfg = T.TrainConfig(learning_rate=0.3, max_epochs=10, patience=2, seed=1)
        best, hist = T.train_multitask(params, config, {"toy": ds}, cfg)
        per_epoch = [hist.mean_dev_error(e) for e in hist.epochs()]
        assert hist.best_epoch == int(np.argmin(per_epoch))
        err_now = T.evaluate(best, config, ds.dev, 0)
        assert abs(err_now - min(per_epoch)) < 1e-12

    def test_best_checkpoint_is_the_model_rewound_to_its_best_epoch(self):
        ds = toy_task()
        cfg = T.TrainConfig(learning_rate=0.5, max_epochs=3, patience=3, seed=1)
        params, config = toy_model()
        best, hist = T.train_multitask(params, config, {"toy": ds}, cfg)
        # improved after epoch 1, not after epoch 2: epoch 2's steps are undone
        assert hist.best_epoch == 1 and len(hist.records) == 3
        assert best is params
        # the same bytes as the model trained up to the best epoch and no further
        at_best, _ = toy_model()
        T.train_multitask(at_best, config, {"toy": ds},
                          T.TrainConfig(learning_rate=0.5, max_epochs=hist.best_epoch + 1,
                                        patience=3, seed=1))
        for name, arr in best.named_tensors().items():
            assert arr.tobytes() == at_best.named_tensors()[name].tobytes(), name

    def test_divergence_aborts_retaining_checkpoint(self):
        # saturating gates keep honest runs finite, so inject the NaN
        # directly (e.g. a corrupted warm-start checkpoint)
        ds = toy_task()
        params, config = toy_model()
        params.tensors["shared.W"][0, 0] = np.nan
        cfg = T.TrainConfig(learning_rate=0.1, max_epochs=5, patience=5, seed=0)
        best, hist = T.train_multitask(params, config, {"toy": ds}, cfg)
        assert hist.diverged
        assert hist.records == [] and hist.best_epoch == -1

    def test_divergence_names_the_step(self):
        # a NaN in task 1's head: its first batch has a non-finite loss, and
        # it is the epoch's step 3, after task 0's labeled batch and its two
        # unlabeled ones (ratio 2)
        corpus, vocab, names = ragged_corpus(unlabeled=20)
        config = M.ModelConfig(scheme="asp", task_names=names, classes=(2, 2),
                               hidden_size=4, embed_size=3, vocab_size=len(vocab))
        params = M.init_model(config, seed=1)
        params.tensors["head.1.b"][0] = np.nan
        cfg = T.TrainConfig(max_epochs=2, seed=0, use_unlabeled=True, unlabeled_ratio=2.0)
        _, hist = T.train_multitask(params, config, corpus, cfg)
        assert hist.divergence == T.Divergence(0, 3, names[1], "training loss is not finite")
        assert str(hist.divergence).startswith(f"epoch 0, step 3, task '{names[1]}': ")

    @staticmethod
    def _trailing_by(gap):
        """A one-sentence batch whose true class trails the other by about ``gap`` logits."""
        params, config = toy_model()
        params.tensors["head.0.b"][:] = [gap, 0.0]
        return params, config, D.Batch(task=0, sequences=[[2, 3, 4]], labels=[1])

    def test_logit_gap_past_the_float_range_is_a_non_finite_loss(self):
        # exp(-1000) is 0, so the true class's log-probability is -inf
        params, config, batch = self._trailing_by(1000.0)
        with pytest.raises(NumericError, match="not finite"):
            T._batch_grads(params, config, batch, T.TrainConfig(seed=0))

    def test_subnormal_true_class_probability_is_a_non_finite_gradient(self):
        # exp(-740) is subnormal: the loss is finite, 1 / p overflows
        params, config, batch = self._trailing_by(740.0)
        cfg = T.TrainConfig(seed=0)
        (l_ce, _, _), grads = T._batch_grads(params, config, batch, cfg)
        assert np.isfinite(l_ce)
        with pytest.raises(NumericError, match="non-finite gradient"):
            T.sgd_step(params, grads, cfg.learning_rate, cfg.clip_norm)

    def test_empty_dev_split_rejected_before_the_first_step(self):
        ds = toy_task(n_dev=0)
        params, config = toy_model()
        before = {n: a.tobytes() for n, a in params.named_tensors().items()}
        with pytest.raises(InputError, match="task 'toy': empty dev split"):
            T.train_multitask(params, config, {"toy": ds}, T.TrainConfig(seed=0))
        assert {n: a.tobytes() for n, a in params.named_tensors().items()} == before

    def test_empty_training_split_rejected_before_the_first_step(self):
        corpus = {"t0": toy_task(seed=0, name="t0"), "t1": toy_task(seed=1, n_train=0, name="t1")}
        params, config = toy_model("sp", K=2)
        before = {n: a.tobytes() for n, a in params.named_tensors().items()}
        with pytest.raises(InputError, match="task 't1': empty training split"):
            T.train_multitask(params, config, corpus, T.TrainConfig(seed=0))
        assert {n: a.tobytes() for n, a in params.named_tensors().items()} == before

    def test_nan_loss_raises_numeric_error(self):
        from advmtl.train import _train_one_batch
        ds = toy_task()
        params, config = toy_model()
        params.tensors["embeddings"][:, 0] = np.nan
        batch = D.Batch(task=0, sequences=[ds.train[0].tokens],
                        labels=[ds.train[0].label])
        with pytest.raises(NumericError):
            _train_one_batch(params, config, batch,
                             T.TrainConfig(max_epochs=1, seed=0))

    def test_asp_lambda_gamma_zero_matches_sp_gradients(self):
        # same parameters and batch: gradients of every shared tensor agree
        spec = D.SynthSpec(tasks=2, sentences_per_task=40, seed=2)
        raw, _ = D.generate_synthetic(spec)
        corpus, vocab = D.encode_corpus(raw)
        names = tuple(sorted(corpus))
        batch = D.Batch(task=1, sequences=[e.tokens for e in corpus[names[1]].train[:8]],
                        labels=[e.label for e in corpus[names[1]].train[:8]])

        def grads_for(scheme):
            config = M.ModelConfig(scheme=scheme, task_names=names, classes=(2, 2),
                                   hidden_size=6, embed_size=6, vocab_size=len(vocab))
            params = M.init_model(config, seed=3)
            cfg = T.TrainConfig(adv_weight=0.0, diff_weight=0.0, seed=0)
            return T._batch_grads(params, config, batch, cfg)[1]

        sp = grads_for("sp")
        asp = grads_for("asp")
        for name, g in sp.items():
            npt.assert_array_equal(g, asp[name], err_msg=name)

    def test_unlabeled_batches_require_adversary(self):
        ds = toy_task()
        params, config = toy_model("fs")
        cfg = T.TrainConfig(max_epochs=1, use_unlabeled=True, seed=0)
        best, hist = T.train_multitask(params, config, {"toy": ds}, cfg)
        assert len(hist.records) == 1  # unlabeled silently unused without disc

    def test_asp_with_unlabeled_runs(self):
        spec = D.SynthSpec(tasks=2, sentences_per_task=60, unlabeled_per_task=30,
                           seed=5)
        raw, _ = D.generate_synthetic(spec)
        corpus, vocab = D.encode_corpus(raw)
        names = tuple(sorted(corpus))
        config = M.ModelConfig(scheme="asp", task_names=names, classes=(2, 2),
                               hidden_size=6, embed_size=6, vocab_size=len(vocab))
        params = M.init_model(config, seed=1)
        cfg = T.TrainConfig(max_epochs=2, patience=2, seed=1, use_unlabeled=True)
        best, hist = T.train_multitask(params, config, corpus, cfg)
        assert len(hist.records) == 4
        assert all(np.isfinite(r.train_loss) for r in hist.records)

    def test_alternating_mode_runs(self):
        spec = D.SynthSpec(tasks=2, sentences_per_task=40, seed=6)
        raw, _ = D.generate_synthetic(spec)
        corpus, vocab = D.encode_corpus(raw)
        names = tuple(sorted(corpus))
        config = M.ModelConfig(scheme="asp", task_names=names, classes=(2, 2),
                               hidden_size=5, embed_size=5, vocab_size=len(vocab))
        params = M.init_model(config, seed=1)
        cfg = T.TrainConfig(max_epochs=1, patience=1, seed=1, alternating=True)
        best, hist = T.train_multitask(params, config, corpus, cfg)
        assert len(hist.records) == 2


class TestUndoJournal:
    """The returned model holds the bytes of a run stopped at its best epoch."""

    @staticmethod
    def _script_dev_errors(monkeypatch, errors, dev_stats=T._dev_stats):
        """Make epoch i's mean dev error ``errors[i]``; return the list of finished epochs."""
        done = []

        def scripted(params, config, tasks):
            _, disc_accs = dev_stats(params, config, tasks)
            err = errors[len(done)]
            done.append(err)
            return [err] * len(tasks), disc_accs

        monkeypatch.setattr(T, "_dev_stats", scripted)
        return done

    @staticmethod
    def _setup(case):
        corpus, vocab, names = ragged_corpus(seed=3, unlabeled=12 if case == "unlabeled" else 0)
        config = M.ModelConfig(scheme="asp", task_names=names, classes=(2, 2),
                               hidden_size=5, embed_size=4, vocab_size=len(vocab) + 20)
        cfg = T.TrainConfig(learning_rate=0.3, adv_weight=0.1, diff_weight=0.1, max_epochs=6,
                            patience=2, batch_size=6, seed=3,
                            alternating=case == "alternating",
                            use_unlabeled=case == "unlabeled")

        def model():
            return M.init_model(config, seed=4, freeze_embeddings=case == "frozen")

        return corpus, config, cfg, model

    @staticmethod
    def _bytes(params):
        return {n: a.tobytes() for n, a in params.named_tensors().items()}

    @pytest.mark.parametrize("case", ["joint", "alternating", "frozen", "unlabeled"])
    def test_best_epoch_before_the_last(self, case, monkeypatch):
        corpus, config, cfg, model = self._setup(case)
        # best after epoch 1; epochs 2 and 3 do not improve and patience stops the run
        done = self._script_dev_errors(monkeypatch, [0.5, 0.3, 0.4, 0.3])
        params = model()
        best, hist = T.train_multitask(params, config, corpus, cfg)
        assert best is params and len(done) == 4 and hist.best_epoch == 1
        # the same run stopped by max_epochs right after its best epoch
        self._script_dev_errors(monkeypatch, [0.5, 0.3])
        stopped, short = T.train_multitask(model(), config, corpus, replace(cfg, max_epochs=2))
        assert short.best_epoch == 1 and short.records == hist.records[:4]
        assert self._bytes(best) == self._bytes(stopped)
        if case == "frozen":
            assert best.tensors["embeddings"].tobytes() == model().tensors["embeddings"].tobytes()

    def test_divergence_restores_the_best_epoch(self, monkeypatch):
        corpus, config, cfg, model = self._setup("joint")
        done = self._script_dev_errors(monkeypatch, [0.3, 0.4, 0.2])
        batch_grads, calls = T._batch_grads, []

        def diverge_in_epoch_2(*args):
            calls.append(len(done))
            if calls.count(2) == 3:  # two steps of epoch 2 have changed the model
                raise NumericError("injected")
            return batch_grads(*args)

        monkeypatch.setattr(T, "_batch_grads", diverge_in_epoch_2)
        best, hist = T.train_multitask(model(), config, corpus, cfg)
        assert hist.diverged and hist.best_epoch == 0 and hist.epochs() == [0, 1]
        # the third step of epoch 2 is task 0's second batch
        assert hist.divergence == T.Divergence(2, 2, config.task_names[0], "injected")
        monkeypatch.setattr(T, "_batch_grads", batch_grads)
        self._script_dev_errors(monkeypatch, [0.3])
        epoch0, _ = T.train_multitask(model(), config, corpus, replace(cfg, max_epochs=1))
        assert self._bytes(best) == self._bytes(epoch0)

    def test_memory_stays_below_one_embedding_table(self):
        corpus = {f"t{k}": toy_task(seed=k, n_train=48, n_dev=16, n_test=8, name=f"t{k}")
                  for k in range(2)}
        params, config = toy_model("asp", K=2, d=4, vocab=200_000)
        table = params.tensors["embeddings"].nbytes
        assert table == 6_400_000
        cfg = T.TrainConfig(learning_rate=0.3, max_epochs=3, patience=3, seed=0)
        tracemalloc.start()
        try:
            T.train_multitask(params, config, corpus, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table


class TestEvaluate:
    def test_all_correct_and_exact_fraction(self):
        ds = toy_task(seed=3, n_dev=400)
        params, config = toy_model(seed=3)
        tape = Tape()
        preds = []
        for ex in ds.dev:
            t = Tape()
            res = M.forward(t, params.bind(t), config, ex.tokens, 0, want_disc=False)
            preds.append(int(np.argmax(res.class_probs.value)))
        aligned = [D.Example(ex.tokens, p) for ex, p in zip(ds.dev, preds)]
        assert T.evaluate(params, config, aligned, 0) == 0.0
        flipped = [D.Example(ex.tokens, ex.label) for ex in aligned]
        for i in (7, 200):
            flipped[i] = D.Example(flipped[i].tokens, 1 - flipped[i].label)
        assert T.evaluate(params, config, flipped, 0) == pytest.approx(2 / 400)

    def test_empty_split_rejected(self):
        params, config = toy_model()
        with pytest.raises(InputError):
            T.evaluate(params, config, [], 0)

    def test_token_chunks_equal_one_sentence_at_a_time(self, monkeypatch):
        params, config = toy_model("asp", K=2, seed=4)
        rng = np.random.default_rng(8)
        lengths = [int(n) for n in rng.integers(1, 40, size=150)]
        lengths[60] = T.ENCODE_TOKENS + 37
        examples = [D.Example([int(v) for v in rng.integers(0, 12, size=n)],
                              int(rng.integers(2))) for n in lengths]
        chunks, encode = [], M.encode

        def spy(params, config, sentences, task=None):
            chunks.append([len(s) for s in sentences])
            return encode(params, config, sentences, task)

        monkeypatch.setattr(M, "encode", spy)
        pred, disc = T._predictions(params, config, examples, 1)
        err = T.evaluate(params, config, examples, 1)
        monkeypatch.undo()
        chunks = chunks[:len(chunks) // 2]  # the evaluate call chunks the same way
        assert [n for c in chunks for n in c] == lengths
        assert len(chunks) >= 4 and [lengths[60]] in chunks
        for c, nxt in zip(chunks, chunks[1:]):
            assert sum(c) <= T.ENCODE_TOKENS or len(c) == 1
            assert sum(c) + nxt[0] > T.ENCODE_TOKENS  # a chunk ends only at the budget
        for k, ex in enumerate(examples):
            alone = M.encode(params, config, [ex.tokens], 1)
            assert pred[k] == np.argmax(alone.class_probs[0])
            assert disc[k] == np.argmax(alone.disc_probs[0])
        assert err == np.mean(pred != [ex.label for ex in examples])

    def test_memory_is_bounded_by_the_token_budget(self):
        d = e = 16
        params, config = toy_model("asp", K=2, d=d, seed=5, vocab=30)
        rng = np.random.default_rng(9)
        # short sentences, and a run of long ones whose tokens add up to 3x the budget
        lengths = [5] * 1000 + [200] * 16 + [5] * 984
        examples = [D.Example(rng.integers(0, 30, size=n).tolist(), 0) for n in lengths]
        tracemalloc.start()
        try:
            T.evaluate(params, config, examples, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one fold's packed inputs and gate pre-activations, N x (e + 4d) floats, twice over
        assert peak < 2 * T.ENCODE_TOKENS * (e + 4 * d) * 8


class TestGridSearch:
    def test_single_cell_equals_plain_training(self):
        ds = toy_task()
        base = T.TrainConfig(learning_rate=0.3, max_epochs=3, patience=3, seed=2)
        params, config = toy_model(seed=5)
        result = T.grid_search(params, config, {"toy": ds}, {"learning_rate": [0.3]}, base)
        # the grid trained a copy: params is still the untrained model
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(params.tensors.values(), toy_model(seed=5)[0].tensors.values()))
        best, hist = T.train_multitask(params, config, {"toy": ds}, base)
        assert result.cells == [({"learning_rate": 0.3},
                                 hist.mean_dev_error(hist.best_epoch))]
        for n, a in best.named_tensors().items():
            npt.assert_array_equal(a, result.best_params.named_tensors()[n])

    def test_hopeless_cell_loses(self):
        # an absurd learning rate gives a true class probability 0, so that
        # cell diverges (-log 0 is inf); the selection rule must pick the sane cell
        ds = toy_task()
        base = T.TrainConfig(learning_rate=0.3, max_epochs=3, patience=3, seed=2,
                             clip_norm=1e12)
        params, config = toy_model(seed=5)
        result = T.grid_search(params, config, {"toy": ds},
                               {"learning_rate": [1e9, 0.3]}, base)
        assert result.best_index == 1
        assert result.cells[1][1] < result.cells[0][1]


class TestNoCycleCollectorNeeded:
    """With the cycle collector off, reference counting alone frees finished training."""

    @staticmethod
    def _corpus():
        return {f"t{k}": toy_task(seed=k, n_train=48, n_dev=16, n_test=8, name=f"t{k}")
                for k in range(2)}

    @pytest.mark.parametrize("case", ["joint", "alternating", "diverged"])
    def test_a_trained_model_outlives_no_reference(self, case, no_cycle_collector):
        params, config = toy_model("asp", K=2, d=16)
        if case == "diverged":  # the loss is NaN: the step raises before backward
            params.tensors["embeddings"][...] = np.nan
        cfg = T.TrainConfig(learning_rate=0.1, max_epochs=2, patience=2, batch_size=16,
                            alternating=case == "alternating")
        ref = weakref.ref(params.tensors["shared.W"])
        best, history = T.train_multitask(params, config, self._corpus(), cfg)
        assert history.diverged == (case == "diverged")
        assert best is params and ref() is params.tensors["shared.W"]
        assert best.tensors["shared.W"].shape == (64, 32)
        del params, best
        assert ref() is None

    def test_grid_keeps_only_the_running_best_cell(self, monkeypatch, no_cycle_collector):
        train = T.train_multitask
        started, returned = [], []

        def spy(params, *args):
            started.append(sum(r() is not None for r in returned))
            best, history = train(params, *args)
            assert best is params  # the cell's copy, trained in place
            returned.append(weakref.ref(best.tensors["shared.W"]))
            return best, history

        monkeypatch.setattr(T, "train_multitask", spy)
        base = T.TrainConfig(learning_rate=0.3, max_epochs=3, patience=3, seed=2,
                             clip_norm=1e12)
        ds = toy_task()
        # the hopeless first cell (it diverges) is best until the second;
        # the third ties the second
        result = T.grid_search(*toy_model(seed=5), {"toy": ds},
                               {"learning_rate": [1e9, 0.3, 0.3, 1e9]}, base)
        assert result.best_index == 1
        assert result.cells[2][1] == result.cells[1][1] < result.cells[0][1]
        assert started == [0, 1, 1, 1]  # each cell trains beside the best one so far
        assert [r() is not None for r in returned] == [False, True, False, False]
        assert returned[1]() is result.best_params.tensors["shared.W"]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_fewer_than_one_job_is_rejected(self, jobs):
        # it used to run the grid serially without a word
        with pytest.raises(ConfigError, match="jobs"):
            T.grid_search(*toy_model(seed=5), {"toy": toy_task()}, {"learning_rate": [0.3]},
                          T.TrainConfig(learning_rate=0.3, max_epochs=1, seed=2), jobs=jobs)


class TestTransferTraining:
    def test_frozen_shared_bitwise_unchanged(self):
        ds = toy_task()
        source, _ = toy_model(seed=8)
        w_bytes = source.tensors["shared.W"].tobytes()
        b_bytes = source.tensors["shared.b"].tobytes()
        cfg = T.TrainConfig(learning_rate=0.3, max_epochs=3, patience=3, seed=0)
        for mode in ("sc", "bc"):
            trained, tconfig, hist, err = T.train_transfer(
                source, ds, mode, cfg, vocab_size=12, model_seed=1)
            assert trained.tensors["shared.W"].tobytes() == w_bytes
            assert trained.tensors["shared.b"].tobytes() == b_bytes
            assert 0.0 <= err <= 1.0

    def test_bc_head_reads_both_channels(self):
        ds = toy_task()
        source, _ = toy_model(seed=8)
        cfg = T.TrainConfig(learning_rate=0.3, max_epochs=1, patience=1, seed=0)
        trained, tconfig, _, _ = T.train_transfer(source, ds, "bc", cfg,
                                                  vocab_size=12, model_seed=1)
        assert tconfig.head_input_size == 16


class TestProbe:
    def test_probe_reads_linear_structure(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(loc=(0, 0), size=(50, 2)),
                       rng.normal(loc=(3, 3), size=(50, 2))])
        y = [0] * 50 + [1] * 50
        W, b = T.fit_probe(X, y, 2, iters=200, lr=0.5)
        assert T.probe_accuracy(W, b, X, y) > 0.95

    def test_cosine_diagnostic_requires_private(self):
        params, config = toy_model("fs")
        with pytest.raises(ConfigError):
            T.shared_private_cosine(params, config, {}, "dev")
