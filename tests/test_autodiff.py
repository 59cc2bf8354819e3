import zlib
from functools import reduce

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from advmtl import autodiff as ad
from advmtl import nn
from advmtl.autodiff import GradReversalSpec, Tape
from advmtl.errors import ConfigError, ContractError, ShapeError

import oracles


def leaf(tape, x):
    return tape.leaf(np.asarray(x, dtype=np.float64))


class TestMatmul:
    def test_identity(self):
        t = Tape()
        out = oracles.matmul(leaf(t, [[1, 0], [0, 1]]), leaf(t, [[3], [4]]))
        npt.assert_array_equal(out.value, [[3], [4]])

    def test_hand_product(self):
        t = Tape()
        out = oracles.matmul(leaf(t, [[1, 2]]), leaf(t, [[3], [4]]))
        npt.assert_array_equal(out.value, [[11]])

    def test_against_triple_loop(self):
        # BLAS reassociates the inner sum, so allow a few ulp
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        t = Tape()
        out = oracles.matmul(leaf(t, a), leaf(t, b))
        npt.assert_allclose(out.value, oracles.matmul_loops(a.tolist(), b.tolist()),
                            rtol=1e-14, atol=1e-15)

    def test_matrix_vector(self):
        rng = np.random.default_rng(7)
        a, v = rng.normal(size=(3, 4)), rng.normal(size=4)
        t = Tape()
        out = oracles.matmul(leaf(t, a), leaf(t, v))
        npt.assert_allclose(out.value, a @ v, rtol=0, atol=0)

    def test_shape_error_names_both_shapes(self):
        t = Tape()
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            oracles.matmul(leaf(t, np.ones((2, 3))), leaf(t, np.ones((2, 3))))


class TestElementwise:
    def test_tanh_odd(self):
        t = Tape()
        assert float(oracles.tanh(leaf(t, 0.0)).value) == 0.0

    def test_add_bias_broadcast(self):
        t = Tape()
        out = oracles.add(leaf(t, [[1.0, 2.0], [3.0, 4.0]]), leaf(t, [10.0, 20.0]))
        npt.assert_array_equal(out.value, [[11, 22], [13, 24]])

    def test_mul_shape_mismatch(self):
        t = Tape()
        with pytest.raises(ShapeError):
            oracles.mul(leaf(t, [1.0, 2.0]), leaf(t, [1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("start, stop", [(0, 0), (2, 1), (-1, 2), (1, 5)])
    def test_columns_out_of_range(self, start, stop):
        with pytest.raises(ShapeError):
            ad.columns(leaf(Tape(), np.ones((2, 4))), start, stop)

    def test_concat_axis1(self):
        t = Tape()
        out = oracles.concat([leaf(t, [[1.0], [2.0]]), leaf(t, [[3.0], [4.0]])], axis=1)
        npt.assert_array_equal(out.value, [[1, 3], [2, 4]])


class TestBackward:
    def test_sweep_frees_the_closures_and_runs_once(self):
        import weakref

        class Kept:  # stands in for the forward values a vjp keeps
            pass

        t = Tape()
        p = leaf(t, [1.0, 2.0])
        kept = Kept()
        ref = weakref.ref(kept)
        out = t.record(p.value * 3.0, (p,), lambda g, kept=kept: (3.0 * g,))
        del kept
        loss = oracles.sum_all(out)
        npt.assert_array_equal(ad.backward(t, loss)[p.idx], [3.0, 3.0])
        assert ref() is None  # freed by the sweep, not left to the cycle collector
        with pytest.raises(ContractError):
            ad.backward(t, loss)

    def test_linear_map(self):
        t = Tape()
        p = leaf(t, [1.0, 2.0, 3.0])
        grads = ad.backward(t, oracles.sum_all(p))
        npt.assert_array_equal(grads[p.idx], [1.0, 1.0, 1.0])

    def test_quadratic(self):
        t = Tape()
        p = leaf(t, [1.0, 2.0])
        grads = ad.backward(t, oracles.sum_all(oracles.mul(p, p)))
        npt.assert_array_equal(grads[p.idx], [2.0, 4.0])

    def test_unused_leaf_has_no_entry(self):
        t = Tape()
        p = leaf(t, [1.0, 2.0])
        q = leaf(t, np.ones((2, 2)))
        r = leaf(t, [3.0])
        grads = ad.backward(t, oracles.add(oracles.sum_all(oracles.mul(p, p)), oracles.sum_all(r)))
        assert set(grads) == {p.idx, r.idx} and q.idx not in grads
        assert grads[p.idx].tobytes() == np.array([2.0, 4.0]).tobytes()
        assert grads[r.idx].tobytes() == np.array([1.0]).tobytes()

    def test_constant_only_subgraph_runs_no_vjp(self):
        t = Tape()
        p = leaf(t, [1.0, 2.0])
        frozen = t.constant(np.ones((3, 2)))
        looked_up = ad.take_rows(frozen, [0, 2])
        assert not looked_up.needs_grad

        def must_not_run(g):
            raise AssertionError("vjp of a node with no leaf upstream ran")

        t._vjps[looked_up.idx] = must_not_run
        grads = ad.backward(t, oracles.add(oracles.sum_all(p), oracles.sum_all(looked_up)))
        assert set(grads) == {p.idx}

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        p = leaf(t, [1.0, 2.0])
        with pytest.raises(ContractError):
            ad.backward(t, p)

    def test_lstm_step_composite_against_finite_differences(self):
        # seeded d=4 LSTM step under a composite loss
        rng = np.random.default_rng(123)
        d, e = 4, 3
        params = {"W": rng.uniform(-0.5, 0.5, (4 * d, d + e)),
                  "b": rng.uniform(-0.5, 0.5, 4 * d),
                  "x": rng.uniform(-1, 1, e),
                  "h": rng.uniform(-1, 1, d),
                  "c": rng.uniform(-1, 1, d)}

        def loss_fn(p, with_grads):
            t = Tape()
            nodes = {k: t.leaf(v) for k, v in p.items()}
            h, c = oracles.lstm_step(nodes["x"], nodes["h"], nodes["c"],
                                nodes["W"], nodes["b"])
            out = oracles.add(oracles.sum_all(oracles.mul(h, h)), oracles.sum_all(oracles.tanh(c)))
            if not with_grads:
                return float(out.value), None
            gm = ad.backward(t, out)
            return float(out.value), {k: gm[n.idx] for k, n in nodes.items()}

        assert ad.finite_difference_check(loss_fn, params, eps=1e-5) < 1e-6


class TestRelease:
    @staticmethod
    def _graph():
        t = Tape()
        p = leaf(t, [1.0, 2.0])
        q = oracles.tanh(p)
        return t, p, q, oracles.sum_all(oracles.mul(q, q))

    def test_swept_tape_keeps_only_its_length(self):
        t, p, q, loss = self._graph()
        n = len(t)
        ad.backward(t, loss)
        assert t.nodes == [] and t._vjps == [] and len(t) == n == 4
        npt.assert_array_equal(q.value, np.tanh([1.0, 2.0]))
        assert float(loss.value) == float((np.tanh([1.0, 2.0]) ** 2).sum())
        for record in (lambda: t.leaf([1.0]), lambda: t.constant([1.0]),
                       lambda: oracles.tanh(q)):
            with pytest.raises(ContractError):
                record()
        with pytest.raises(ContractError):
            ad.backward(t, loss)

    def test_a_sweep_that_raises_still_releases(self):
        t = Tape()
        p = leaf(t, [1.0, 2.0])

        def broken(g):
            raise ValueError("vjp failed")

        loss = oracles.sum_all(t.record(p.value * 2.0, (p,), broken))
        with pytest.raises(ValueError):
            ad.backward(t, loss)
        assert t.nodes == [] and t._vjps == [] and len(t) == 3

    @pytest.mark.parametrize("sweep", [True, False])
    def test_released_graph_is_freed_by_reference_counting(self, sweep, no_cycle_collector):
        import weakref

        t, p, q, loss = self._graph()
        refs = [weakref.ref(p.value), weakref.ref(q.value)]
        if sweep:
            ad.backward(t, loss)
        else:
            t.release()
        assert all(r() is not None for r in refs)
        del t, p, q, loss
        assert all(r() is None for r in refs)


def _random_graph(seed):
    """A seeded graph whose vjps return shared and sliced upstream gradients.

    Nodes are ``[3, 2]`` matrices made by ``add`` (alone or chained) and
    ``concat`` (whose vjps return ``g`` itself or views of it), ``tanh`` and table
    lookups; each reads one to three earlier nodes picked at random,
    possibly the same one twice. The table leaf is read by ``take_rows``
    (a ``RowGrad``) and, in some graphs, densely through ``matmul``. The
    loss sums ``n * n`` over the nodes nothing reads, so every other node's
    first gradient is one its consumer's vjp shares or slices.
    """
    rng = np.random.default_rng(seed)
    t = Tape()
    table = t.leaf(rng.normal(size=(5, 2)))
    pool = [t.leaf(rng.normal(size=(3, 2))) for _ in range(2)]
    pool.append(ad.take_rows(table, rng.integers(0, 5, size=3)))
    if rng.integers(2):
        pool.append(oracles.matmul(t.leaf(rng.normal(size=(3, 5))), table))
    read = set()
    for _ in range(int(rng.integers(3, 10))):
        op = int(rng.integers(6))
        ops = [pool[int(i)] for i in rng.integers(len(pool), size=(2, 2, 3, 2, 1, 1)[op])]
        if op == 0:
            node = oracles.add(*ops)
        elif op == 1:  # column slices of the upstream gradient
            node = oracles.matmul(oracles.concat(ops, axis=1), t.leaf(rng.normal(size=(4, 2))))
        elif op == 2:
            node = reduce(oracles.add, ops)
        elif op == 3:  # row slices of the upstream gradient
            node = oracles.matmul(t.leaf(rng.normal(size=(3, 6))), oracles.concat(ops, axis=0))
        elif op == 4:
            node = oracles.tanh(ops[0])
        else:
            node = oracles.add(ops[0], ad.take_rows(table, rng.integers(0, 5, size=3)))
        pool.append(node)
        read.update(n.idx for n in ops)
    sinks = [n for n in pool if n.idx not in read]
    return t, reduce(oracles.add, [oracles.sum_all(oracles.mul(n, n)) for n in sinks])


class TestAccumulation:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_copy_then_add_in_place(self, seed):
        t_new, loss_new = _random_graph(seed)
        t_old, loss_old = _random_graph(seed)
        new = ad.backward(t_new, loss_new)
        old = oracles.backward_copy_accumulate(t_old, loss_old)
        assert list(new) == list(old)
        for i, g in new.items():
            assert type(g) is type(old[i])
            if isinstance(g, ad.RowGrad):
                assert g.ids.tobytes() == old[i].ids.tobytes()
                g, want = g.rows, old[i].rows
            else:
                want = old[i]
            assert g.shape == want.shape and g.tobytes() == want.tobytes()

    def test_graphs_mix_dense_and_row_sparse_table_gradients(self):
        kinds = set()
        for seed in range(40):
            t, loss = _random_graph(seed)
            kinds.add(type(ad.backward(t, loss)[0]))
        assert kinds == {ad.RowGrad, np.ndarray}


class TestGradientReversal:
    def test_forward_identity_bitwise(self):
        t = Tape()
        x = leaf(t, [1.0, 2.0])
        out = ad.gradient_reversal(x, GradReversalSpec(1.0))
        assert out.value.tobytes() == x.value.tobytes()

    def test_backward_sign_flip(self):
        t = Tape()
        x = leaf(t, [1.0, 1.0])
        rev = ad.gradient_reversal(x, GradReversalSpec(1.0))
        weighted = oracles.mul(rev, t.constant([0.5, -0.5]))
        grads = ad.backward(t, oracles.sum_all(weighted))
        npt.assert_array_equal(grads[x.idx], [-0.5, 0.5])

    def test_paper_default_scale(self):
        # upstream [1.0] at the documented default weight 0.05
        t = Tape()
        x = leaf(t, [1.0])
        rev = ad.gradient_reversal(x, GradReversalSpec(0.05))
        grads = ad.backward(t, oracles.sum_all(rev))
        npt.assert_allclose(grads[x.idx], [-0.05], rtol=0, atol=0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigError):
            GradReversalSpec(-0.1)

    @given(a=st.floats(0.0, 3.0), b=st.floats(0.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_double_reversal_composes(self, a, b):
        t = Tape()
        x = leaf(t, [2.0])
        out = ad.gradient_reversal(
            ad.gradient_reversal(x, GradReversalSpec(a)), GradReversalSpec(b))
        grads = ad.backward(t, oracles.sum_all(out))
        npt.assert_allclose(grads[x.idx], [a * b], rtol=1e-15, atol=0)


class TestFiniteDifferenceCheck:
    def test_linear_loss_near_zero_error(self):
        def loss_fn(p, with_grads):
            t = Tape()
            x = t.leaf(p["x"])
            out = oracles.sum_all(ad.scale(x, 3.0))
            if not with_grads:
                return float(out.value), None
            return float(out.value), {"x": ad.backward(t, out)[x.idx]}

        err = ad.finite_difference_check(loss_fn, {"x": np.array([1.0, -2.0])}, 1e-5)
        assert err < 1e-9

    def test_reversal_needs_explicit_negation(self):
        # finite differences see the unreversed function; the analytic
        # gradient of the reversed node is exactly -scale times that
        scale = 0.7
        x0 = {"x": np.array([0.3, -0.4])}
        coeff = np.array([1.5, 2.5])

        def build(reversed_path):
            def loss_fn(p, with_grads):
                t = Tape()
                x = t.leaf(p["x"])
                h = ad.gradient_reversal(x, GradReversalSpec(scale)) if reversed_path else x
                out = oracles.sum_all(oracles.mul(h, t.constant(coeff)))
                if not with_grads:
                    return float(out.value), None
                return float(out.value), {"x": ad.backward(t, out)[x.idx]}
            return loss_fn

        _, rev_grads = build(True)(x0, True)
        _, id_grads = build(False)(x0, True)
        npt.assert_allclose(rev_grads["x"], -scale * id_grads["x"], rtol=0, atol=1e-15)
        # the identity path itself passes the check; the reversed path fails it
        assert ad.finite_difference_check(build(False), x0, 1e-5) < 1e-9
        assert ad.finite_difference_check(build(True), x0, 1e-5) > 0.1

    def test_nan_reported_as_failure(self):
        def loss_fn(p, with_grads):
            val = float(p["x"][0])
            grad = {"x": np.array([float("nan")])} if with_grads else None
            return val, grad

        assert ad.finite_difference_check(loss_fn, {"x": np.array([1.0])}, 1e-5) == float("inf")


# softmax, softmax_rows, affine and affine_vec check the two halves of the one
# classifier node nn.softmax_classify, for vector and matrix input: its softmax
# through identity weights and a zero bias, its affine map through general ones
OPS = ["add", "add_bias", "mul", "matmul", "matvec", "tanh", "softmax",
       "concat0", "concat1", "sum_all", "row", "take_rows", "softmax_rows", "affine",
       "affine_vec", "scatter_rows", "row_indices", "columns", "columns_vec"]


@pytest.mark.parametrize("op", OPS)
def test_every_op_matches_finite_differences(op):
    rng = np.random.default_rng(zlib.crc32(op.encode()))

    def build(p, with_grads):
        t = Tape()
        if op in ("add", "mul"):
            a, b = t.leaf(p["a"]), t.leaf(p["b"])
            out = getattr(oracles, op)(a, b)
            nodes = {"a": a, "b": b}
        elif op == "add_bias":
            a, b = t.leaf(p["a"]), t.leaf(p["bias"])
            out = oracles.add(a, b)
            nodes = {"a": a, "bias": b}
        elif op == "matmul":
            a, b = t.leaf(p["m1"]), t.leaf(p["m2"])
            out = oracles.matmul(a, b)
            nodes = {"m1": a, "m2": b}
        elif op == "matvec":
            a, b = t.leaf(p["m1"]), t.leaf(p["v"])
            out = oracles.matmul(a, b)
            nodes = {"m1": a, "v": b}
        elif op == "tanh":
            a = t.leaf(p["a"])
            out = oracles.tanh(a)
            nodes = {"a": a}
        elif op in ("softmax", "softmax_rows"):
            a = t.leaf(p["v" if op == "softmax" else "m1"])
            out = oracles.softmax_node(a)
            nodes = {"v" if op == "softmax" else "m1": a}
        elif op == "concat0":
            a, b = t.leaf(p["a"]), t.leaf(p["b"])
            out = oracles.concat([a, b], axis=0)
            nodes = {"a": a, "b": b}
        elif op == "concat1":
            a, b = t.leaf(p["m1"]), t.leaf(p["m3"])
            out = oracles.concat([a, b], axis=1)
            nodes = {"m1": a, "m3": b}
        elif op == "sum_all":
            a = t.leaf(p["m1"])
            out = oracles.sum_all(a)
            nodes = {"m1": a}
        elif op == "row":
            a = t.leaf(p["m1"])
            out = ad.row(a, 1)
            nodes = {"m1": a}
        elif op == "take_rows":
            a = t.leaf(p["m1"])
            out = ad.take_rows(a, [0, 2, 0])
            nodes = {"m1": a}
        elif op in ("affine", "affine_vec"):
            x = t.leaf(p["m1" if op == "affine" else "a"])
            W, b = t.leaf(p["w"]), t.leaf(p["bias2"])
            out = nn.softmax_classify(x, W, b)
            nodes = {"m1" if op == "affine" else "a": x, "w": W, "bias2": b}
        elif op == "scatter_rows":
            a = t.leaf(p["m1"])
            out = ad.scatter_rows(a, [4, 0, 5], (2, 3))
            nodes = {"m1": a}
        elif op == "row_indices":
            a = t.leaf(p["m1"])
            out = ad.row(a, np.array([2, 0]))
            nodes = {"m1": a}
        elif op in ("columns", "columns_vec"):
            a = t.leaf(p["m1" if op == "columns" else "a"])
            out = ad.columns(a, 1, 3)
            nodes = {"m1" if op == "columns" else "a": a}
        loss = oracles.sum_all(oracles.mul(out, out)) if out.value.shape != () else out
        if not with_grads:
            return float(loss.value), None
        gm = ad.backward(t, loss)
        return float(loss.value), {k: gm[n.idx] for k, n in nodes.items()}

    params = {"a": rng.normal(size=4), "b": rng.normal(size=4),
              "bias": rng.normal(size=4),
              "m1": rng.normal(size=(3, 4)), "m2": rng.normal(size=(4, 2)),
              "m3": rng.normal(size=(3, 2)),
              "v": rng.normal(size=4),
              "w": rng.normal(size=(2, 4)), "bias2": rng.normal(size=2)}
    if op == "add_bias":
        params["a"] = rng.normal(size=(3, 4))
    used = {"add": ["a", "b"], "add_bias": ["a", "bias"], "mul": ["a", "b"],
            "matmul": ["m1", "m2"], "matvec": ["m1", "v"],
            "tanh": ["a"], "softmax": ["v"],
            "concat0": ["a", "b"], "concat1": ["m1", "m3"],
            "sum_all": ["m1"], "row": ["m1"], "take_rows": ["m1"], "softmax_rows": ["m1"],
            "affine": ["m1", "w", "bias2"], "affine_vec": ["a", "w", "bias2"],
            "scatter_rows": ["m1"], "row_indices": ["m1"], "columns": ["m1"],
            "columns_vec": ["a"]}[op]
    err = ad.finite_difference_check(build, {k: params[k] for k in used}, 1e-5)
    assert err < 1e-4, f"{op}: max relative error {err}"


def _dense_take_rows_grad(shape, idx, g):
    """The dense embedding gradient of one lookup: zeros plus ``np.add.at``."""
    out = np.zeros(shape)
    np.add.at(out, np.asarray(idx), g)
    return out


class TestRowGrad:
    # ids repeat within a sentence and are shared across sentences
    SENTENCES = ([1, 3, 1, 5], [3, 0, 3], [5, 5, 1])

    def _lookups(self, t, table, rng):
        terms, upstream = [], []
        for ids in self.SENTENCES:
            c = rng.normal(size=(len(ids), table.value.shape[1]))
            upstream.append(c)  # d sum(x * c) / dx is c exactly
            terms.append(oracles.sum_all(oracles.mul(ad.take_rows(table, ids), t.constant(c))))
        return terms, upstream

    def test_dense_value_bitwise_equals_add_at(self):
        rng = np.random.default_rng(0)
        t = Tape()
        table = leaf(t, rng.normal(size=(7, 3)))
        terms, upstream = self._lookups(t, table, rng)
        g = ad.backward(t, reduce(oracles.add, terms))[table.idx]
        assert isinstance(g, ad.RowGrad)
        npt.assert_array_equal(g.ids, [0, 1, 3, 5])
        assert g.rows.shape == (4, 3)
        assert (g.size, g.nbytes, g.itemsize) == (12, 96, 8)
        # backward visits the lookups last-recorded first and sums densely
        dense = [_dense_take_rows_grad((7, 3), ids, c)
                 for ids, c in zip(self.SENTENCES, upstream)]
        expected = dense[2].copy()
        expected += dense[1]
        expected += dense[0]
        assert np.asarray(g).tobytes() == expected.tobytes()
        assert np.count_nonzero(g) == np.count_nonzero(expected)

    @pytest.mark.parametrize("direct_first", [False, True])
    def test_dense_use_of_the_same_leaf_gives_a_dense_sum(self, direct_first):
        rng = np.random.default_rng(1)
        t = Tape()
        table = leaf(t, rng.normal(size=(7, 3)))
        weight = rng.normal(size=(7, 3))
        if direct_first:
            direct = oracles.sum_all(oracles.mul(table, t.constant(weight)))
        terms, upstream = self._lookups(t, table, rng)
        if not direct_first:
            direct = oracles.sum_all(oracles.mul(table, t.constant(weight)))
        g = ad.backward(t, reduce(oracles.add, [direct] + terms))[table.idx]
        assert isinstance(g, np.ndarray)
        # parts in recording order; backward visits the last-recorded first
        parts = [weight] + [_dense_take_rows_grad((7, 3), ids, c)
                            for ids, c in zip(self.SENTENCES, upstream)]
        if not direct_first:
            parts = parts[1:] + parts[:1]
        expected = parts[-1].copy()
        for part in reversed(parts[:-1]):
            expected += part
        assert g.tobytes() == expected.tobytes()

    def test_computed_operand_gets_a_dense_gradient(self):
        t = Tape()
        a = leaf(t, np.arange(6.0).reshape(3, 2))
        out = oracles.sum_all(ad.take_rows(ad.scale(a, 2.0), [2, 2, 0]))
        g = ad.backward(t, out)[a.idx]
        npt.assert_array_equal(g, [[2.0, 2.0], [0.0, 0.0], [4.0, 4.0]])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sum_and_pair_sum_bitwise_equal_dense(self, data):
        V, e = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        values = st.floats(-1e6, 1e6)  # -0.0 and subnormals included

        def lookup():
            # few ids for many rows, so ids repeat within and across lookups
            idx = np.array(data.draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=9)))
            rows = np.array(data.draw(st.lists(st.lists(values, min_size=e, max_size=e),
                                               min_size=len(idx), max_size=len(idx))))
            return ad.RowGrad(idx, rows, (V, e)), _dense_take_rows_grad((V, e), idx, rows)

        (a, A), (b, B) = lookup(), lookup()
        assert np.asarray(a).tobytes() == A.tobytes()
        total = a + b
        assert isinstance(total, ad.RowGrad)
        assert np.asarray(total).tobytes() == (A + B).tobytes()
        npt.assert_array_equal(total.ids, np.union1d(a.ids, b.ids))

    def test_no_dense_array_is_shared(self):
        g = ad.RowGrad(np.array([1]), np.ones((1, 2)), (3, 2))
        with pytest.raises(ValueError):
            np.asarray(g, copy=False)


def test_gradient_accumulates_across_multiple_uses():
    t = Tape()
    x = t.leaf([3.0])
    out = oracles.add(oracles.mul(x, x), ad.scale(x, 2.0))  # x^2 + 2x -> 2x + 2 = 8
    grads = ad.backward(t, oracles.sum_all(out))
    npt.assert_allclose(grads[x.idx], [8.0], rtol=0, atol=0)


def test_tape_determinism_bitwise():
    def run():
        rng = np.random.default_rng(5)
        t = Tape()
        a = t.leaf(rng.normal(size=(4, 4)))
        b = t.leaf(rng.normal(size=4))
        out = oracles.sum_all(oracles.tanh(oracles.matmul(a, b)))
        grads = ad.backward(t, out)
        return out.value.tobytes(), grads[0].tobytes(), grads[1].tobytes()

    assert run() == run()


@pytest.mark.parametrize("op", [
    lambda a, b: oracles.add(a, b), lambda a, b: oracles.mul(a, b),
    lambda a, b: oracles.matmul(a, b), lambda a, b: nn.softmax_classify(a, a, ad.row(b, 0)),
    lambda a, b: oracles.concat([a, b], axis=1)],
    ids=["add", "mul", "matmul", "softmax_classify", "concat"])
def test_mixed_tapes_rejected(op):
    # the op records on its first operand's tape, which must reject the other
    t1, t2 = Tape(), Tape()
    a, b = t1.leaf(np.eye(2)), t2.leaf(np.eye(2))
    before = len(t1)
    with pytest.raises(ContractError, match="different tapes"):
        op(a, b)
    assert len(t1) == before


@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_softmax_is_distribution(n, seed):
    rng = np.random.default_rng(seed)
    t = Tape()
    out = oracles.softmax_node(t.leaf(rng.uniform(-1e3, 1e3, n)))
    assert abs(out.value.sum() - 1.0) < 1e-9
    assert np.all(out.value >= 0)


def test_scatter_rows_and_row_values():
    t = Tape()
    a = leaf(t, np.arange(8.0).reshape(4, 2))
    padded = ad.scatter_rows(a, [0, 3, 4, 5], (2, 3))  # runs of 1 and 3 rows, zero-padded
    npt.assert_array_equal(padded.value, [[[0, 1], [0, 0], [0, 0]],
                                          [[2, 3], [4, 5], [6, 7]]])
    npt.assert_array_equal(ad.scatter_rows(a, [3, 0, 4, 5], (2, 3)).value,
                           [[[2, 3], [0, 0], [0, 0]], [[0, 1], [4, 5], [6, 7]]])
    npt.assert_array_equal(ad.row(a, np.array([0, 3])).value, [[0, 1], [6, 7]])
    npt.assert_array_equal(ad.row(a, 2).value, [4, 5])
    with pytest.raises(ShapeError):
        ad.scatter_rows(a, [0, 3, 4], (2, 3))  # the slots must cover every row
    with pytest.raises(ShapeError):
        ad.scatter_rows(a, [0, 3, 4, 6], (2, 3))  # a slot past the grid
    grad = ad.backward(t, oracles.sum_all(oracles.mul(padded, padded)))[a.idx]
    npt.assert_array_equal(grad, 2 * a.value)  # each row's gradient from its own slot


def test_softmax_rows_are_independent_distributions():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 4))
    t = Tape()
    out = oracles.softmax_node(leaf(t, m))
    for i in range(3):
        npt.assert_allclose(out.value[i], oracles.softmax_direct(m[i].tolist()),
                            rtol=0, atol=1e-15)
