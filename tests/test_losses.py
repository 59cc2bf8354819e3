import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from advmtl import autodiff as ad
from advmtl import data as D
from advmtl import losses as L
from advmtl import models as M
from advmtl import train as T
from advmtl.autodiff import GradReversalSpec, Tape
from advmtl.errors import ConfigError, ShapeError
from advmtl.train import _combine

import oracles


def rand_probs(rng, n):
    v = rng.uniform(0.05, 1.0, n)
    return v / v.sum()


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        t = Tape()
        out = L.cross_entropy(t.constant([0.0, 1.0, 0.0]), 1)
        assert float(out.value) == 0.0

    def test_uniform_two_classes(self):
        t = Tape()
        out = L.cross_entropy(t.constant([0.5, 0.5]), 0)
        assert abs(float(out.value) - math.log(2.0)) < 1e-12

    def test_batch_mean_equals_per_sample_oracle(self):
        rng = np.random.default_rng(8)
        probs = [rand_probs(rng, 3) for _ in range(4)]
        labels = [int(rng.integers(3)) for _ in range(4)]
        t = Tape()
        batch = L.cross_entropy(t.constant(np.array(probs)), labels)
        expected = np.mean([oracles.cross_entropy_scalar(p, y)
                            for p, y in zip(probs, labels)])
        assert abs(float(batch.value) - expected) < 1e-12

    def test_nonnegative_and_zero_only_at_match(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rand_probs(rng, 4)
            y = int(rng.integers(4))
            t = Tape()
            val = float(L.cross_entropy(t.constant(p), y).value)
            assert val >= 0.0
            if not np.array_equal(p, np.eye(4)[y]):
                assert val > 0.0


def adversarial_ce(s, task, disc_W, disc_b, spec):
    """The training step's adversarial term for one sentence."""
    probs = M.discriminate(ad.gradient_reversal(s, spec), disc_W, disc_b)
    return L.cross_entropy(probs, task)


class TestTaskLoss:
    # the alpha_k weight of the labeled task's cross-entropy in _combine
    def test_single_task_unchanged(self):
        t = Tape()
        out = _combine(t, t.constant(1.7), None, None, 0, T.TrainConfig())
        assert float(out.value) == 1.7

    def test_zero_weight_contributes_nothing(self):
        t = Tape()
        cfg = T.TrainConfig(alpha={0: 1.0, 1: 0.0})
        assert float(_combine(t, t.constant(5.0), None, None, 1, cfg).value) == 0.0
        assert float(_combine(t, t.constant(1.0), None, None, 0, cfg).value) == 1.0

    def test_three_tasks_sum(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 2, 3)
        w = {0: 0.5, 1: 1.0, 2: 2.0}
        cfg = T.TrainConfig(alpha=w)
        t = Tape()
        outs = [float(_combine(t, t.constant(v), None, None, k, cfg).value)
                for k, v in enumerate(vals)]
        assert outs == [w[k] * v for k, v in enumerate(vals)]

    def test_missing_weight_rejected(self):
        ds = {name: D.TaskDataset(name=name, n_classes=2,
                                  train=[D.Example([1, 2], 0)], dev=[], test=[])
              for name in ("a", "b")}
        config = M.ModelConfig(scheme="sp", task_names=("a", "b"), classes=(2, 2),
                               hidden_size=2, embed_size=2, vocab_size=4)
        params = M.init_model(config, seed=0)
        before = {n: a.tobytes() for n, a in params.named_tensors().items()}
        with pytest.raises(ConfigError, match="task 1"):
            T.train_multitask(params, config, ds, T.TrainConfig(alpha={0: 1.0}))
        # rejected before the first step
        assert {n: a.tobytes() for n, a in params.named_tensors().items()} == before


class TestAdversarialLoss:
    def test_uniform_discriminator_gives_log_k(self):
        t = Tape()
        for s in ([1.0, -2.0, 0.3], [0.0, 0.0, 0.0]):
            out = adversarial_ce(t.constant(np.array(s)), task=2,
                                 disc_W=t.leaf(np.zeros((4, 3))),
                                 disc_b=t.leaf(np.zeros(4)),
                                 spec=GradReversalSpec(1.0))
            assert abs(float(out.value) - math.log(4.0)) < 1e-12

    def test_degenerate_game_rejected(self):
        # a one-task adversarial game has nothing to discriminate
        with pytest.raises(ConfigError):
            M.ModelConfig(scheme="asp", task_names=("only",), classes=(2,),
                          hidden_size=3, embed_size=3, vocab_size=4)
        t = Tape()
        with pytest.raises(ConfigError):
            adversarial_ce(t.constant(np.zeros(3)), 1,
                           t.leaf(np.zeros((1, 3))), t.leaf(np.zeros(1)),
                           GradReversalSpec(1.0))

    @pytest.mark.parametrize("lam", [0.0, 0.05, 1.0])
    def test_encoder_gradient_is_minus_lambda_times_identity(self, lam):
        # dual tapes: reversal(scale) vs identity; encoder-side gradients
        rng = np.random.default_rng(31)
        d, K = 5, 3
        U = rng.normal(size=(K, d))
        bD = rng.normal(size=K)
        s_val = rng.normal(size=d)

        def encoder_grad(spec):
            t = Tape()
            s = t.leaf(s_val)
            if spec is None:
                probs = M.discriminate(s, t.constant(U), t.constant(bD))
                out = L.cross_entropy(probs, 1)
            else:
                out = adversarial_ce(s, 1, t.constant(U), t.constant(bD), spec)
            return ad.backward(t, out)[s.idx]

        reversed_g = encoder_grad(GradReversalSpec(lam))
        identity_g = encoder_grad(None)
        npt.assert_allclose(reversed_g, -lam * identity_g, rtol=0, atol=1e-12)

    def test_default_scale_matches_documented_value(self):
        assert GradReversalSpec(0.05).scale == 0.05


class TestDiffLoss:
    def test_zero_factor(self):
        t = Tape()
        rng = np.random.default_rng(0)
        out = L.diff_loss(t.constant(rng.normal(size=(4, 3))),
                          t.constant(np.zeros((4, 3))))
        assert float(out.value) == 0.0

    def test_hand_example(self):
        t = Tape()
        out = L.diff_loss(t.constant([[1.0, 0.0]]), t.constant([[0.0, 1.0]]))
        assert float(out.value) == 1.0

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(55)
        S = rng.normal(size=(5, 3))
        H = rng.normal(size=(5, 3))
        t = Tape()
        out = L.diff_loss(t.constant(S), t.constant(H))
        want = oracles.frobenius_sq_loops(S.tolist(), H.tolist())
        assert abs(float(out.value) - want) < 1e-12 * max(1.0, want)

    def test_column_mismatch_rejected(self):
        t = Tape()
        with pytest.raises(ShapeError):
            L.diff_loss(t.constant(np.zeros((4, 3))), t.constant(np.zeros((4, 2))))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_symmetric(self, seed, T, d):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(T, d))
        H = rng.normal(size=(T, d))
        t = Tape()
        a = float(L.diff_loss(t.constant(S), t.constant(H)).value)
        b = float(L.diff_loss(t.constant(H), t.constant(S)).value)
        assert a >= 0.0
        assert abs(a - b) < 1e-9 * max(1.0, a)

    def test_zero_iff_columns_orthogonal(self):
        t = Tape()
        S = np.array([[1.0, 0.0], [0.0, 0.0]])
        H = np.array([[0.0, 0.0], [0.0, 1.0]])  # S^T H == 0
        assert float(L.diff_loss(t.constant(S), t.constant(H)).value) == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        params = {"S": rng.normal(size=(4, 3)), "H": rng.normal(size=(4, 3))}

        def loss_fn(p, with_grads):
            t = Tape()
            S, H = t.leaf(p["S"]), t.leaf(p["H"])
            out = L.diff_loss(S, H)
            if not with_grads:
                return float(out.value), None
            gm = ad.backward(t, out)
            return float(out.value), {"S": gm[S.idx], "H": gm[H.idx]}

        assert ad.finite_difference_check(loss_fn, params, 1e-5) < 1e-6


class TestBatchedDiffLoss:
    def test_sum_of_per_sentence_terms(self):
        rng = np.random.default_rng(56)
        S = rng.normal(size=(3, 5, 2))
        H = rng.normal(size=(3, 5, 2))
        t = Tape()
        out = L.diff_loss(t.constant(S), t.constant(H))
        want = sum(oracles.frobenius_sq_loops(S[b].tolist(), H[b].tolist()) for b in range(3))
        assert abs(float(out.value) - want) < 1e-12 * max(1.0, want)
        assert len(t) == 3  # two inputs and one loss node

    def test_shape_mismatch_rejected(self):
        t = Tape()
        with pytest.raises(ShapeError):
            L.diff_loss(t.constant(np.zeros((2, 4, 3))), t.constant(np.zeros((2, 5, 3))))
        with pytest.raises(ShapeError):
            L.diff_loss(t.constant(np.zeros((2, 4, 3))), t.constant(np.zeros((4, 3))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(78)
        params = {"S": rng.normal(size=(2, 4, 3)), "H": rng.normal(size=(2, 4, 3))}

        def loss_fn(p, with_grads):
            t = Tape()
            S, H = t.leaf(p["S"]), t.leaf(p["H"])
            out = L.diff_loss(S, H)
            if not with_grads:
                return float(out.value), None
            gm = ad.backward(t, out)
            return float(out.value), {"S": gm[S.idx], "H": gm[H.idx]}

        assert ad.finite_difference_check(loss_fn, params, 1e-5) < 1e-6


class TestBatchedCrossEntropy:
    def test_gradient_is_the_mean_of_the_rows(self):
        rng = np.random.default_rng(9)
        P = np.array([rand_probs(rng, 3) for _ in range(4)])
        labels = [0, 2, 1, 2]
        Y = np.eye(3)[labels]
        t = Tape()
        p = t.leaf(P)
        g = ad.backward(t, L.cross_entropy(p, labels))[p.idx]
        npt.assert_allclose(g, -Y / P / 4, rtol=1e-15, atol=0)

    def test_one_tape_node(self):
        t = Tape()
        p = t.leaf(np.array([[0.25, 0.75], [0.5, 0.5]]))
        before = len(t)
        L.cross_entropy(p, [1, 0])
        assert len(t) == before + 1

    @pytest.mark.parametrize("rows, labels, err", [
        (2, [0, -1], ConfigError), (2, [0, 3], ConfigError), (2, [0, 1, 2], ShapeError),
        (2, [1], ShapeError), (2, 1, ShapeError),
        (None, -1, ConfigError), (None, 3, ConfigError), (None, [0], ShapeError)])
    def test_bad_labels_rejected(self, rows, labels, err):
        # a negative label would wrap under numpy indexing
        t = Tape()
        probs = np.full(3 if rows is None else (rows, 3), 1 / 3)
        with pytest.raises(err):
            L.cross_entropy(t.constant(probs), labels)

    @pytest.mark.parametrize("gap", [27.0, 30.0, 40.0, 60.0, 700.0])
    def test_exact_at_large_logit_gaps(self, gap):
        # the true class trails by `gap`; the exact gradient is p - onehot
        t = Tape()
        z = t.leaf(np.array([[gap, 0.0]]))
        p = ad.softmax(z)
        out = L.cross_entropy(p, [1])
        assert np.isfinite(out.value) and abs(float(out.value) - gap) < 1e-12 * gap
        g = ad.backward(t, out)[z.idx]
        npt.assert_allclose(g, p.value - [[0.0, 1.0]], rtol=0, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5), st.integers(2, 5),
           st.booleans(), st.sampled_from([1.0, 0.0, 0.3, 2.5]))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_the_composed_chain(self, seed, rows, C, batched, alpha):
        # logits within 20 of each other keep every probability above 1e-12
        rng = np.random.default_rng(seed)
        Z = rng.uniform(-10.0, 10.0, (rows, C) if batched else C)
        labels = rng.integers(C, size=rows) if batched else int(rng.integers(C))

        def run(ce, on_logits):
            t = Tape()
            z = t.leaf(Z if on_logits else ad._softmax(Z))
            out = ce(ad.softmax(z) if on_logits else z, labels)
            g = ad.backward(t, ad.scale(out, alpha))[z.idx]
            return np.asarray(out.value).tobytes(), g.tobytes()

        for on_logits in (True, False):
            assert run(L.cross_entropy, on_logits) == run(oracles.cross_entropy_composed,
                                                         on_logits)

    def test_softmax_then_cross_entropy_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for z0, labels in ((rng.normal(size=(3, 4)), [0, 3, 1]), (rng.normal(size=4), 2)):
            def loss_fn(p, with_grads):
                t = Tape()
                z = t.leaf(p["z"])
                out = L.cross_entropy(ad.softmax(z), labels)
                if not with_grads:
                    return float(out.value), None
                return float(out.value), {"z": ad.backward(t, out)[z.idx]}

            assert ad.finite_difference_check(loss_fn, {"z": z0}, 1e-5) < 1e-6


class TestTotalLoss:
    # _combine: alpha_k * ce + adv + gamma * diff over the terms present
    def test_degenerate_weights_reduce_to_task(self):
        t = Tape()
        out = _combine(t, t.constant(1.25), None, t.constant(9.0), 0,
                       T.TrainConfig(diff_weight=0.0))
        assert float(out.value) == 1.25

    def test_documented_default_weights(self):
        cfg = T.TrainConfig()
        assert cfg.adv_weight == 0.05 and cfg.diff_weight == 0.01 and cfg.alpha is None

    def test_arithmetic(self):
        t = Tape()
        out = _combine(t, t.constant(1.0), t.constant(2.0), t.constant(3.0), 1,
                       T.TrainConfig(diff_weight=0.1, alpha={0: 1.0, 1: 0.5}))
        assert abs(float(out.value) - 2.8) < 1e-15

    def test_unlabeled_batch_returns_adversarial_term(self):
        t = Tape()
        l_adv = t.constant(0.75)
        assert _combine(t, None, l_adv, None, 0, T.TrainConfig()) is l_adv

    def test_non_scalar_rejected(self):
        t = Tape()
        with pytest.raises(ShapeError):
            _combine(t, t.constant([1.0, 2.0]), t.constant(0.0), t.constant(0.0), 0,
                     T.TrainConfig())

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            T.TrainConfig(adv_weight=-0.1)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="alpha"):
                T.TrainConfig(alpha={0: 1.0, 1: bad})
