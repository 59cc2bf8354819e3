import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from advmtl import autodiff as ad
from advmtl import data as D
from advmtl import models as M
from advmtl import nn
from advmtl.autodiff import Tape
from advmtl.errors import DataFormatError, InputError, ShapeError

import oracles


def bind_lstm(tape, W, b):
    return tape.leaf(np.asarray(W, dtype=np.float64)), tape.leaf(np.asarray(b, dtype=np.float64))


def encode_one(xs, W, b):
    """``nn.lstm_encode`` of one layer over one sentence's rows ``xs``: (h_T [1, d], all_h [T, d]).

    A sentence's packed order is its token order.
    """
    packing = nn.pack(np.array([len(xs.value)]))
    all_h = nn.lstm_encode(xs, ((W, b),), packing)
    return ad.row(all_h, packing.last), all_h


def token_states(X, W, b, lengths):
    """``nn.lstm_states`` of one layer over the concatenated sentences ``X``, in token order."""
    packing = nn.pack(np.asarray(lengths, dtype=np.intp))
    states = np.empty((len(X), b.shape[0] // 4))
    states[packing.rows] = nn.lstm_states(X[packing.rows], ((W, b),), packing)
    return states


class TestLstmStep:
    def test_zero_params_zero_state(self):
        d, e = 3, 2
        t = Tape()
        W, b = bind_lstm(t, np.zeros((4 * d, d + e)), np.zeros(4 * d))
        h, c = oracles.lstm_step(t.constant(np.ones(e)), t.constant(np.zeros(d)),
                            t.constant(np.zeros(d)), W, b)
        npt.assert_array_equal(h.value, np.zeros(d))
        npt.assert_array_equal(c.value, np.zeros(d))

    def test_zero_params_nonzero_cell(self):
        # gates sit at 0.5, candidate at 0: c = v/2, h = tanh(v/2)/2
        d, e = 3, 2
        v = np.array([1.0, -2.0, 0.5])
        t = Tape()
        W, b = bind_lstm(t, np.zeros((4 * d, d + e)), np.zeros(4 * d))
        h, c = oracles.lstm_step(t.constant(np.ones(e)), t.constant(np.zeros(d)),
                            t.constant(v), W, b)
        npt.assert_allclose(c.value, 0.5 * v, rtol=0, atol=1e-15)
        npt.assert_allclose(h.value, 0.5 * np.tanh(0.5 * v), rtol=0, atol=1e-15)

    def test_seeded_against_scalar_loop_oracle(self):
        rng = np.random.default_rng(2024)
        d, e = 2, 2
        W = rng.uniform(-1, 1, (4 * d, d + e))
        b = rng.uniform(-1, 1, 4 * d)
        x = rng.uniform(-1, 1, e)
        h_prev = rng.uniform(-1, 1, d)
        c_prev = rng.uniform(-1, 1, d)
        t = Tape()
        Wn, bn = bind_lstm(t, W, b)
        h, c = oracles.lstm_step(t.constant(x), t.constant(h_prev), t.constant(c_prev),
                            Wn, bn)
        oh, oc, gates = oracles.lstm_step_loops(x.tolist(), h_prev.tolist(),
                                                c_prev.tolist(), W.tolist(), b.tolist())
        npt.assert_allclose(h.value, oh, rtol=0, atol=1e-12)
        npt.assert_allclose(c.value, oc, rtol=0, atol=1e-12)

    def test_gate_ranges(self):
        # gates stay in [0,1], candidate in [-1,1], even for extreme inputs
        rng = np.random.default_rng(9)
        d, e = 3, 3
        W = rng.uniform(-1, 1, (4 * d, d + e)) * 50
        b = rng.uniform(-1, 1, 4 * d) * 50
        x = rng.uniform(-5, 5, e)
        _, _, gates = oracles.lstm_step_loops(x.tolist(), [0] * d, [0] * d,
                                              W.tolist(), b.tolist())
        for key in ("o", "i", "f"):
            assert all(0.0 <= g <= 1.0 for g in gates[key])
        assert all(-1.0 <= g <= 1.0 for g in gates["cbar"])

    def test_shape_mismatch(self):
        d, e = 3, 2
        t = Tape()
        W, b = bind_lstm(t, np.zeros((4 * d, d + e)), np.zeros(4 * d))
        with pytest.raises(ShapeError):
            oracles.lstm_step(t.constant(np.ones(e + 1)), t.constant(np.zeros(d)),
                         t.constant(np.zeros(d)), W, b)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 24), n=st.integers(1, 8), data=st.data())
    def test_gate_affine_equals_the_two_ops_on_the_sigmoid_blocks(self, d, n, data):
        # _lstm_step scales and shifts whole rows, 1 and -0.0 on the candidate
        # block: bit for bit the in-place halving and shift of z[:, d:] alone
        finite = st.floats(-40, 40, allow_subnormal=True)
        rows = st.lists(st.one_of(finite, st.sampled_from([0.0, -0.0])),
                        min_size=n * 4 * d, max_size=n * 4 * d)
        z0 = np.array(data.draw(rows)).reshape(n, 4 * d)
        W_hT = np.zeros((d, 4 * d))
        want = np.tanh(z0)
        gates = want[:, d:]
        gates *= 0.5
        gates += 0.5
        cbar, o, i, f = (want[:, k * d:(k + 1) * d] for k in range(4))
        z = z0.copy()
        h, c, tanh_c = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
        nn._lstm_step(z, W_hT, None, None, h, c, tanh_c, np.empty((n, 4 * d)), np.empty((n, d)))
        assert z.tobytes() == want.tobytes()  # signed zeros included
        assert c.tobytes() == (cbar * i).tobytes()
        assert h.tobytes() == (o * np.tanh(cbar * i)).tobytes()


class TestLstmEncode:
    def _setup(self, seed, d=3, e=2, T=3):
        rng = np.random.default_rng(seed)
        return (rng.uniform(-0.8, 0.8, (4 * d, d + e)),
                rng.uniform(-0.8, 0.8, 4 * d),
                rng.uniform(-1, 1, (T, e)))

    def test_single_step_equivalence(self):
        W, b, xs = self._setup(5, T=1)
        t = Tape()
        Wn, bn = bind_lstm(t, W, b)
        h_T, all_h = encode_one(t.constant(xs), Wn, bn)
        d = b.shape[0] // 4
        h1, _ = oracles.lstm_step(t.constant(xs[0]), t.constant(np.zeros(d)),
                             t.constant(np.zeros(d)), Wn, bn)
        npt.assert_allclose(h_T.value[0], h1.value, rtol=0, atol=1e-15)

    def test_zero_params_any_sequence(self):
        d, e, T = 4, 3, 5
        t = Tape()
        W, b = bind_lstm(t, np.zeros((4 * d, d + e)), np.zeros(4 * d))
        h_T, _ = encode_one(t.constant(np.random.default_rng(0).normal(size=(T, e))), W, b)
        npt.assert_array_equal(h_T.value[0], np.zeros(d))

    def test_chained_oracle_T3(self):
        W, b, xs = self._setup(77, T=3)
        t = Tape()
        Wn, bn = bind_lstm(t, W, b)
        h_T, all_h = encode_one(t.constant(xs), Wn, bn)
        oh, oall = oracles.lstm_encode_loops(xs.tolist(), W.tolist(), b.tolist())
        npt.assert_allclose(h_T.value[0], oh, rtol=0, atol=1e-12)
        npt.assert_allclose(all_h.value, oall, rtol=0, atol=1e-12)

    def test_last_row_equals_final_state(self):
        W, b, xs = self._setup(6, T=7)
        t = Tape()
        Wn, bn = bind_lstm(t, W, b)
        h_T, all_h = encode_one(t.constant(xs), Wn, bn)
        npt.assert_array_equal(all_h.value[-1], h_T.value[0])

    def test_empty_sequence_rejected(self):
        t = Tape()
        W, b = bind_lstm(t, np.zeros((12, 5)), np.zeros(12))
        with pytest.raises(InputError):
            encode_one(t.constant(np.zeros((0, 2))), W, b)

    @pytest.mark.parametrize("T", [1, 3, 7])
    def test_gradients_match_finite_differences(self, T):
        rng = np.random.default_rng(100 + T)
        d, e = 3, 2
        params = {"W": rng.uniform(-0.7, 0.7, (4 * d, d + e)),
                  "b": rng.uniform(-0.7, 0.7, 4 * d),
                  "xs": rng.uniform(-1, 1, (T, e))}

        def loss_fn(p, with_grads):
            t = Tape()
            nodes = {k: t.leaf(v) for k, v in p.items()}
            h_T, all_h = encode_one(nodes["xs"], nodes["W"], nodes["b"])
            out = ad.add(ad.sum_all(ad.mul(h_T, h_T)), ad.sum_all(ad.tanh(all_h)))
            if not with_grads:
                return float(out.value), None
            gm = ad.backward(t, out)
            return float(out.value), {k: gm[n.idx] for k, n in nodes.items()}

        assert ad.finite_difference_check(loss_fn, params, 1e-5) < 1e-4


class TestBatchedLstm:
    LENGTHS = [3, 1, 5]  # ragged and unsorted
    ENDS = np.cumsum(LENGTHS)
    PACKING = nn.pack(np.array(LENGTHS))

    def _setup(self, seed, d=3, e=2):
        rng = np.random.default_rng(seed)
        return (rng.uniform(-0.8, 0.8, (4 * d, d + e)), rng.uniform(-0.8, 0.8, 4 * d),
                rng.uniform(-1, 1, (sum(self.LENGTHS), e)))

    def _sentences(self):
        """The row slice of each sentence in the concatenated inputs."""
        return [slice(end - n, end) for n, end in zip(self.LENGTHS, self.ENDS)]

    def test_each_sentence_as_if_alone(self):
        W, b, xs = self._setup(3)
        H = token_states(xs, W, b, self.LENGTHS)
        assert H.shape == (sum(self.LENGTHS), 3)
        for rows in self._sentences():
            alone = token_states(xs[rows], W, b, [len(xs[rows])])
            npt.assert_allclose(H[rows], alone, rtol=0, atol=1e-15)
            _, oall = oracles.lstm_encode_loops(xs[rows].tolist(), W.tolist(), b.tolist())
            npt.assert_allclose(H[rows], oall, rtol=0, atol=1e-12)

    def test_final_state_at_each_length(self):
        W, b, xs = self._setup(4)
        t = Tape()
        Wn, bn = bind_lstm(t, W, b)
        packing = self.PACKING
        all_h = nn.lstm_encode(t.constant(xs[packing.rows]), ((Wn, bn),), packing)
        H = np.empty_like(all_h.value)  # the packed rows in token order
        H[packing.rows] = all_h.value
        for k, end in enumerate(self.ENDS):
            assert all_h.value[packing.last[k]].tobytes() == H[end - 1].tobytes()

    def test_bad_lengths_rejected(self):
        W, b, xs = self._setup(6)
        t = Tape()

        def encode(X, layers, packing):
            nodes = tuple((t.leaf(W), t.leaf(b)) for W, b in layers)
            return nn.lstm_encode(t.constant(X), nodes, packing)

        with pytest.raises(InputError):
            nn.pack(np.array([4, 0, 5]))
        with pytest.raises(InputError, match="no sentences"):  # not numpy's ValueError
            nn.pack(np.array([], dtype=np.intp))
        layer = (W, b)
        for fold in (encode, nn.lstm_states, nn.lstm_final_states):
            with pytest.raises(ShapeError):
                fold(xs, (layer,), nn.pack(np.array([3, 1, 6])))  # more rows than the input has
            with pytest.raises(ShapeError):
                fold(xs, (layer,), nn.pack(np.array([3, 1])))
            with pytest.raises(ShapeError):
                fold(xs[:, :1], (layer,), self.PACKING)  # input width
            with pytest.raises(ShapeError):
                fold(xs[None], (layer,), self.PACKING)  # not [N, e] rows
            with pytest.raises(ShapeError):
                fold(xs, (layer,) * 3, self.PACKING)  # one or two layers
            with pytest.raises(ShapeError):
                fold(xs, ((W[:8, :4], b[:8]), layer), self.PACKING)  # of unequal widths

    def test_gradients_match_finite_differences(self):
        W, b, xs = self._setup(7)
        params = {"xs": xs, "W": W, "b": b}

        def loss_fn(p, with_grads):
            t = Tape()
            nodes = {k: t.leaf(v) for k, v in p.items()}
            xs = ad.row(nodes["xs"], self.PACKING.rows)  # packed order
            all_h = nn.lstm_encode(xs, ((nodes["W"], nodes["b"]),), self.PACKING)
            h_T = ad.row(all_h, self.PACKING.last)
            out = ad.add(ad.sum_all(ad.mul(h_T, h_T)), ad.sum_all(ad.tanh(all_h)))
            if not with_grads:
                return float(out.value), None
            gm = ad.backward(t, out)
            return float(out.value), {k: gm[n.idx] for k, n in nodes.items()}

        assert ad.finite_difference_check(loss_fn, params, 1e-5) < 1e-4

    def test_weight_gradient_is_the_sum_over_sentences(self):
        W, b, xs = self._setup(8)

        def grads(batch, packing):
            t = Tape()
            Wn, bn = bind_lstm(t, W, b)
            packing = nn.pack(np.array([len(batch)])) if packing is None else packing
            all_h = nn.lstm_encode(t.constant(batch[packing.rows]), ((Wn, bn),), packing)
            h_T = ad.row(all_h, packing.last)
            gm = ad.backward(t, ad.add(ad.sum_all(ad.mul(h_T, h_T)),
                                       ad.sum_all(ad.tanh(all_h))))
            return gm[Wn.idx], gm[bn.idx]

        dW, db = grads(xs, self.PACKING)
        alone = [grads(xs[rows], None) for rows in self._sentences()]
        npt.assert_allclose(dW, sum(g for g, _ in alone), rtol=0, atol=1e-14)
        npt.assert_allclose(db, sum(g for _, g in alone), rtol=0, atol=1e-14)


class TestPackedFold:
    """The packed fold against the padded fold it replaced, ``oracles.PaddedLstmFold``."""

    CASES = {  # lengths, T
        "ragged_unsorted_ties": ([4, 2, 6, 2, 6, 1], 6),
        "all_equal": ([5, 5, 5], 5),
        "batch_of_one": ([7], 7),
        "length_one": ([1, 3, 1], 3),
        "T_past_longest": ([2, 4, 3], 7),
    }

    def _setup(self, lengths, T, d, e, seed=11):
        rng = np.random.default_rng(seed)
        return (rng.uniform(-1, 1, (len(lengths), T, e)), rng.uniform(-0.8, 0.8, (4 * d, d + e)),
                rng.uniform(-0.8, 0.8, 4 * d), rng.normal(size=(len(lengths), T, d)))

    @staticmethod
    def _real(lengths, T):
        """``[B, T]`` mask of the real tokens; a padded batch indexed by it is their rows."""
        return np.arange(T) < np.array(lengths)[:, None]

    @pytest.mark.parametrize("d,e", [(3, 2), (24, 16)])
    @pytest.mark.parametrize("lengths,T", CASES.values(), ids=list(CASES))
    def test_matches_padded_fold(self, lengths, T, d, e):
        X, W, b, g = self._setup(lengths, T, d, e)  # g is nonzero on padded steps too
        packing = nn.pack(np.array(lengths))
        real = self._real(lengths, T)  # token order; [real][packing.rows] is packed order
        packed = nn._LstmFold(X[real][packing.rows], W, b, packing)
        padded = oracles.PaddedLstmFold(X, W, b, lengths)
        npt.assert_allclose(packed.H, padded.outputs()[real][packing.rows], rtol=0, atol=1e-12)
        dX, dW, db = padded.backward(g)
        for name, got, want in zip(("dX", "dW", "db"), packed.backward(g[real][packing.rows]),
                                   (dX[real][packing.rows], dW, db)):
            assert got.shape == want.shape, name
            npt.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    def test_stores_only_real_rows(self):
        lengths, T = self.CASES["T_past_longest"]
        X, W, b, _ = self._setup(lengths, T, 3, 2)
        packing = nn.pack(np.array(lengths))
        fold = nn._LstmFold(X[self._real(lengths, T)][packing.rows], W, b, packing)
        stored = {k: v for k, v in vars(fold).items()
                  if isinstance(v, np.ndarray) and v is not fold.W}
        assert {"X", "Z", "H", "C", "tanh_C"} <= set(stored)
        assert {k: v.shape[0] for k, v in stored.items()} == dict.fromkeys(stored, sum(lengths))


class TestFinalStates:
    """``nn.lstm_final_states``, the inference fold, against the training fold."""

    def _setup(self, lengths, d, e, seed=12):
        rng = np.random.default_rng(seed)
        return (rng.uniform(-1, 1, (sum(lengths), e)),
                rng.uniform(-0.8, 0.8, (4 * d, d + e)), rng.uniform(-0.8, 0.8, 4 * d))

    @staticmethod
    def _final(X, W, b, lengths):
        """Final states of the concatenated sentences ``X``, fed as packed rows."""
        packing = nn.pack(np.asarray(lengths, dtype=np.intp))
        (final,) = nn.lstm_final_states(X[packing.rows], ((W, b),), packing)
        return final

    @pytest.mark.parametrize("d,e", [(3, 2), (24, 16)])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_single_sentence_bitwise_equal_to_fold(self, n, d, e):
        X, W, b = self._setup([n], d, e)
        want = token_states(X, W, b, [n])[n - 1]
        assert self._final(X, W, b, [n])[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("d,e", [(3, 2), (24, 16)])
    @pytest.mark.parametrize("lengths", [[4, 2, 6, 2, 6, 1], [5, 5, 5], [1, 3, 1], [2, 9, 3]])
    def test_ragged_batch_matches_fold(self, lengths, d, e):
        X, W, b = self._setup(lengths, d, e)
        H = token_states(X, W, b, lengths)
        got = self._final(X, W, b, lengths)
        assert got.shape == (len(lengths), d)
        for k, end in enumerate(np.cumsum(lengths)):
            npt.assert_allclose(got[k], H[end - 1], rtol=0, atol=1e-12)

    def test_packing_indexes_both_layouts(self):
        lengths, T = np.array([2, 4, 1, 4]), 5
        starts = np.cumsum(lengths) - lengths
        packing = nn.pack(lengths)
        assert packing.active == [4, 3, 2, 2]
        assert packing.offs == [0, 4, 7, 9, 11]
        npt.assert_array_equal(packing.order, [1, 3, 0, 2])
        # the same (sentence, step) behind each packed row as in a padded
        # [B, T] batch sorted longest first and read time-major
        padded = [k * T + t for t in range(T) for k in packing.order if t < lengths[k]]
        k, t = np.divmod(padded, T)
        npt.assert_array_equal(packing.rows, starts[k] + t)
        npt.assert_array_equal(packing.slots, k * lengths.max() + t)
        npt.assert_array_equal(packing.last, [6, 9, 3, 10])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    @example([1]).via("a batch of one sentence of one token")
    @example([3, 1, 3, 1]).via("ties and length one")
    def test_index_maps_name_the_same_tokens(self, lengths):
        lengths = np.array(lengths, dtype=np.intp)
        packing = nn.pack(lengths)
        T, starts = lengths.max(), np.cumsum(lengths) - lengths
        step = np.repeat(np.arange(T), packing.active)  # the step each packed row sits in
        k, t = np.divmod(packing.slots, T)  # the (sentence, step) grid slot of each row
        npt.assert_array_equal(t, step)
        assert np.all(t < lengths[k])
        npt.assert_array_equal(packing.rows, starts[k] + t)  # the same token of that sentence
        npt.assert_array_equal(np.sort(packing.rows), np.arange(lengths.sum()))
        npt.assert_array_equal(packing.rows[packing.last], starts + lengths - 1)


class TestSoftmaxHead:
    def test_zero_head_uniform(self):
        t = Tape()
        W = t.leaf(np.zeros((2, 3)))
        b = t.leaf(np.zeros(2))
        out = nn.softmax_classify(t.constant(np.array([1.0, -1.0, 0.5])), W, b)
        npt.assert_allclose(out.value, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_log_ratio_logits(self):
        t = Tape()
        W = t.leaf(np.zeros((2, 1)))
        b = t.leaf(np.array([math.log(1.0), math.log(3.0)]))
        out = nn.softmax_classify(t.constant(np.array([0.0])), W, b)
        npt.assert_allclose(out.value, [0.25, 0.75], rtol=0, atol=1e-12)

    def test_seeded_against_direct_formula(self):
        rng = np.random.default_rng(11)
        W = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        h = rng.normal(size=4)
        t = Tape()
        out = nn.softmax_classify(t.constant(h), t.leaf(W), t.leaf(b))
        npt.assert_allclose(out.value, oracles.softmax_direct((W @ h + b).tolist()),
                            rtol=0, atol=1e-12)

    @given(st.floats(1.0, 1e3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_distribution_under_large_logits(self, scale, seed):
        # exp underflows to exactly 0 once logit gaps pass ~745, so only
        # the sum and the closed interval hold at extreme magnitudes
        rng = np.random.default_rng(seed)
        t = Tape()
        W = t.leaf(rng.normal(size=(4, 2)) * scale)
        b = t.leaf(rng.normal(size=4) * scale)
        out = nn.softmax_classify(t.constant(rng.normal(size=2)), W, b)
        assert abs(out.value.sum() - 1.0) < 1e-9
        assert np.all(out.value >= 0) and np.all(out.value <= 1)

    def test_open_interval_at_moderate_logits(self):
        rng = np.random.default_rng(4)
        t = Tape()
        out = nn.softmax_classify(t.constant(rng.normal(size=3)),
                                  t.leaf(rng.normal(size=(5, 3)) * 10),
                                  t.leaf(rng.normal(size=5)))
        assert np.all(out.value > 0) and np.all(out.value < 1)

    def test_shape_mismatch(self):
        t = Tape()
        with pytest.raises(ShapeError):
            nn.softmax_classify(t.constant(np.zeros(3)), t.leaf(np.zeros((2, 4))),
                                t.leaf(np.zeros(2)))

    @pytest.mark.parametrize("h_shape, W_shape, b_shape", [
        ((5, 3), (2, 4), (2,)), ((3,), (2, 3), (3,)), ((3,), (2, 3), (2, 1)),
        ((3,), (6,), (2,)), ((1, 2, 3), (2, 3), (2,))])
    def test_shape_checks(self, h_shape, W_shape, b_shape):
        t = Tape()
        h, W, b = (t.leaf(np.zeros(shape)) for shape in (h_shape, W_shape, b_shape))
        with pytest.raises(ShapeError, match="softmax_classify"):
            nn.softmax_classify(h, W, b)
        assert len(t) == 3  # nothing is recorded for the rejected classifier

    def test_one_tape_node(self):
        t = Tape()
        h, W, b = t.leaf(np.ones((2, 3))), t.leaf(np.ones((4, 3))), t.leaf(np.zeros(4))
        before = len(t)
        nn.softmax_classify(h, W, b)
        assert len(t) == before + 1

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([None, 1, 4]), st.integers(1, 5),
           st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_the_two_node_chain(self, seed, rows, n_in, C):
        # rows None is one feature vector; the upstream gradient is a random weighting
        rng = np.random.default_rng(seed)
        h0 = rng.normal(size=n_in if rows is None else (rows, n_in))
        W0, b0 = rng.normal(size=(C, n_in)) * 3, rng.normal(size=C)
        c = rng.normal(size=h0.shape[:-1] + (C,))

        def run(classify):
            t = Tape()
            h, W, b = t.leaf(h0), t.leaf(W0), t.leaf(b0)
            out = classify(h, W, b)
            grads = ad.backward(t, ad.sum_all(ad.mul(out, t.constant(c))))
            return [out.value.tobytes()] + [grads[n.idx].tobytes() for n in (h, W, b)]

        assert run(nn.softmax_classify) == run(oracles.softmax_classify_composed)

    @pytest.mark.parametrize("shape", [(4,), (3, 4)])
    def test_identity_weights_give_the_softmax_of_the_input(self, shape):
        # the probabilities and the gradient into z are bitwise the softmax's own,
        # which is what the tests that need a softmax node rely on
        rng = np.random.default_rng(6)
        z0, c = rng.normal(size=shape) * 5, rng.normal(size=shape)
        t = Tape()
        z = t.leaf(z0)
        out = oracles.softmax_node(z)
        g = ad.backward(t, ad.sum_all(ad.mul(out, t.constant(c))))[z.idx]
        y = ad._softmax(z0)
        assert out.value.tobytes() == y.tobytes()
        assert g.tobytes() == (y * (c - (c * y).sum(axis=-1, keepdims=True))).tobytes()


class TestInit:
    def test_values_in_documented_range(self):
        rng = np.random.default_rng(0)
        for shape in [(10,), (7, 9), (100, 3)]:
            arr = nn.uniform_init(rng, shape)
            assert np.all(arr >= -0.1) and np.all(arr <= 0.1)

    @pytest.mark.parametrize("scheme", M.SCHEMES)
    def test_init_model_same_seed_identical(self, scheme):
        config = M.ModelConfig(scheme, ("a", "b", "c"), (2, 3, 2), hidden_size=4,
                               embed_size=5, vocab_size=7)
        a, b = M.init_model(config, seed=3), M.init_model(config, seed=3)
        want = M._tensor_shapes(config)
        assert [(n, t.shape) for n, t in a.tensors.items()] == list(want.items())
        assert list(b.tensors) == list(want)
        for name, arr in a.tensors.items():
            assert arr.tobytes() == b.tensors[name].tobytes(), name

    def test_law_of_large_numbers(self):
        arr = nn.uniform_init(np.random.default_rng(123), 100_000)
        assert abs(arr.mean()) < 0.005


class TestEmbeddings:
    @staticmethod
    def _forward(sentences):
        """An ``fs`` model whose table row ``i`` is ``[3i, 3i + 1, 3i + 2]``, run on a batch."""
        config = M.ModelConfig("fs", ("a",), (2,), hidden_size=2, embed_size=3, vocab_size=4)
        params = M.init_model(config, seed=0)
        params.tensors["embeddings"][:] = np.arange(12.0).reshape(4, 3)
        tape = Tape()
        bound = params.bind(tape)
        res = M.forward_batch(bound, config, sentences, 0)
        packed = tape.nodes[res.S.parents[0]]  # the encoder's input: the lookup, packed
        return tape, bound["embeddings"], tape.nodes[packed.parents[0]]

    def test_lookup_and_oov_guard(self):
        _, _, xs = self._forward([[1, 0, 1]])
        npt.assert_array_equal(xs.value, [[3, 4, 5], [0, 1, 2], [3, 4, 5]])
        for bad in ([[4]], [[]], [[1], []]):
            with pytest.raises(InputError):
                self._forward(bad)

    def test_batch_looks_up_only_real_tokens(self):
        tape, table, xs = self._forward([[2], [0, 3, 0]])
        npt.assert_array_equal(xs.value, [[6, 7, 8], [0, 1, 2], [9, 10, 11], [0, 1, 2]])
        grad = ad.backward(tape, ad.sum_all(xs))[table.idx]
        npt.assert_array_equal(grad.ids, [0, 2, 3])
        npt.assert_array_equal(grad.rows, np.repeat([[2.0], [1.0], [1.0]], 3, axis=1))
        with pytest.raises(InputError):
            self._forward([])

    def test_load_embeddings_text(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("apple 1.0 2.0\nzebra 9.0 9.0\nbanana -1.0 0.5\n")
        vocab = {"apple": 0, "banana": 2}
        matrix = np.zeros((3, 2))
        loaded = D.load_embeddings_text(path, vocab, matrix)
        assert loaded == 2
        npt.assert_array_equal(matrix[0], [1.0, 2.0])
        npt.assert_array_equal(matrix[1], [0.0, 0.0])
        npt.assert_array_equal(matrix[2], [-1.0, 0.5])

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_load_embeddings_non_finite(self, tmp_path, value):
        path = tmp_path / "vecs.txt"
        path.write_text(f"apple 1.0 2.0\nbanana {value} 0.5\n")
        with pytest.raises(DataFormatError, match="vecs.txt:2: .*'banana'"):
            D.load_embeddings_text(path, {"apple": 0, "banana": 1}, np.zeros((2, 2)))

    VALUE_TEXT = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["nan", "-NaN", "inf", "-inf", "Infinity", "1e999", "1_0", "0x1p3",
                         "1,5", "--1", "e"]),
        st.text(alphabet="0123456789.eE+-nafit_", min_size=1, max_size=6))

    @given(dim=st.integers(1, 3), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_load_embeddings_property(self, tmp_path_factory, dim, data):
        """Every loaded row is finite and equals its line, or DataFormatError is raised."""
        vocab = {"apple": 0, "banana": 1, "cherry": 2}
        lines = data.draw(st.lists(st.tuples(
            st.sampled_from([*vocab, "durian"]),
            st.lists(self.VALUE_TEXT, min_size=max(dim - 1, 0), max_size=dim + 1)),
            max_size=5))
        path = tmp_path_factory.mktemp("vecs") / "vecs.txt"
        path.write_text("".join(" ".join([tok, *vals]) + "\n" for tok, vals in lines))

        def bad(vals):
            if len(vals) != dim:
                return True
            try:  # float() alone would also take "1_0" and non-ASCII digits
                return not all(v.isascii() and "_" not in v and math.isfinite(float(v))
                               for v in vals)
            except ValueError:
                return True

        matrix = np.zeros((len(vocab), dim))
        known = [(tok, vals) for tok, vals in lines if tok in vocab]
        if (any(bad(vals) for _, vals in known)
                or len({tok for tok, _ in known}) < len(known)):  # a known token repeats
            with pytest.raises(DataFormatError):
                D.load_embeddings_text(path, vocab, matrix)
            return
        assert D.load_embeddings_text(path, vocab, matrix) == len(known)
        want = np.zeros_like(matrix)
        for tok, vals in known:
            want[vocab[tok]] = [float(v) for v in vals]
        assert np.isfinite(matrix).all()
        assert matrix.tobytes() == want.tobytes()

    def test_load_embeddings_repeated_token(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 2\nzebra 0 0\nb 3 4\nzebra 0 0\na 5 6\n")
        matrix = np.zeros((2, 2))
        with pytest.raises(DataFormatError, match="vecs.txt:5: 'a' .*line 1"):
            D.load_embeddings_text(path, {"a": 0, "b": 1}, matrix)

    def test_load_embeddings_bad_width(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("apple 1.0 2.0 3.0\n")
        with pytest.raises(DataFormatError, match="vecs.txt:1"):
            D.load_embeddings_text(path, {"apple": 0}, np.zeros((1, 2)))
