import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from advmtl import autodiff as ad
from advmtl import losses as L
from advmtl import models as M
from advmtl.autodiff import GradReversalSpec, Tape
from advmtl.errors import ConfigError, InputError, ShapeError

import oracles


def small_config(scheme="sp", K=2, d=2, e=2, vocab=9):
    return M.ModelConfig(scheme=scheme, task_names=tuple(f"t{i}" for i in range(K)),
                         classes=(2,) * K, hidden_size=d, embed_size=e,
                         vocab_size=vocab)


class TestModelConfig:
    def test_fs_has_no_private(self):
        cfg = small_config("fs")
        assert not cfg.has_private and not cfg.has_discriminator
        assert cfg.head_input_size == cfg.hidden_size

    def test_sp_asp_head_width_doubles(self):
        assert small_config("sp").head_input_size == 4
        assert small_config("asp").head_input_size == 4

    def test_asp_needs_two_tasks(self):
        with pytest.raises(ConfigError):
            small_config("asp", K=1)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            small_config("mtl")

    @pytest.mark.parametrize("field,value", [("hidden_size", 2.0), ("embed_size", True),
                                             ("vocab_size", "9"), ("classes", (2, 2.0)),
                                             ("classes", (2, True))])
    def test_sizes_must_be_plain_ints(self, field, value):
        # 2.0 == 2 and True == 1, so without the type check these pass every range test
        kwargs = dict(scheme="sp", task_names=("a", "b"), classes=(2, 2),
                      hidden_size=2, embed_size=2, vocab_size=9)
        M.ModelConfig(**kwargs)
        with pytest.raises(ConfigError, match=field):
            M.ModelConfig(**{**kwargs, field: value})

    @pytest.mark.parametrize("names", [("a", "a"), ("a", ""), ("a", 2), ("a", ("b",))])
    def test_task_names_must_be_unique_nonempty_strings(self, names):
        with pytest.raises(ConfigError, match="task_names"):
            M.ModelConfig(scheme="sp", task_names=names, classes=(2, 2),
                          hidden_size=2, embed_size=2, vocab_size=9)

    def test_parameter_set_counts(self):
        for scheme, expected in (("fs", 0), ("sp", 3), ("asp", 3)):
            names = M.init_model(small_config(scheme, K=3), seed=0).tensors
            assert sum(n.startswith("private.") for n in names) == 2 * expected
            assert ("disc.W" in names) == ("disc.b" in names) == (scheme == "asp")


class TestForward:
    def test_zero_params_uniform_probs(self):
        cfg = small_config("sp")
        params = M.init_model(cfg, seed=0)
        for name, arr in params.named_tensors().items():
            arr[...] = 0.0
        tape = Tape()
        res = M.forward(tape, params.bind(tape), cfg, [1, 2, 3], task=0)
        npt.assert_allclose(res.class_probs.value, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_fs_result_structure(self):
        cfg = small_config("fs")
        params = M.init_model(cfg, seed=1)
        tape = Tape()
        res = M.forward(tape, params.bind(tape), cfg, [1, 2], task=1)
        assert res.H is None and res.h_T is None and res.disc_probs is None
        assert res.S.value.shape == (2, cfg.hidden_size)
        assert params.tensors["head.0.W"].shape == (2, cfg.hidden_size)

    def test_sp_forward_matches_composed_oracles(self):
        # private and shared chains through the loop oracle, then the
        # direct softmax formula over the concatenated finals
        cfg = small_config("sp", d=2, e=2)
        params = M.init_model(cfg, seed=7)
        ids = [3, 1, 4]
        tape = Tape()
        res = M.forward(tape, params.bind(tape), cfg, ids, task=1)
        xs = params.tensors["embeddings"][ids]
        s_T, _ = oracles.lstm_encode_loops(xs.tolist(), params.tensors["shared.W"].tolist(),
                                           params.tensors["shared.b"].tolist())
        h_T, _ = oracles.lstm_encode_loops(xs.tolist(), params.tensors["private.1.W"].tolist(),
                                           params.tensors["private.1.b"].tolist())
        feat = np.concatenate([h_T, s_T])
        W, b = params.tensors["head.1.W"], params.tensors["head.1.b"]
        want = oracles.softmax_direct((W @ feat + b).tolist())
        npt.assert_allclose(res.class_probs.value, want, rtol=0, atol=1e-12)
        npt.assert_allclose(res.s_T.value, s_T, rtol=0, atol=1e-12)
        npt.assert_allclose(res.h_T.value, h_T, rtol=0, atol=1e-12)

    def test_unknown_task_rejected(self):
        cfg = small_config("sp")
        params = M.init_model(cfg, seed=0)
        tape = Tape()
        with pytest.raises(InputError):
            M.forward(tape, params.bind(tape), cfg, [1], task=2)

    def test_distributions_sum_to_one(self):
        cfg = small_config("asp", K=3)
        params = M.init_model(cfg, seed=3)
        tape = Tape()
        res = M.forward(tape, params.bind(tape), cfg, [1, 5, 2], task=2,
                        rev_spec=GradReversalSpec(0.05))
        assert abs(res.class_probs.value.sum() - 1.0) < 1e-9
        assert abs(res.disc_probs.value.sum() - 1.0) < 1e-9

    def test_asp_forward_equals_sp_forward_at_zero_scale(self):
        # identical seeds: the reversal node is forward-identity, so the
        # class probabilities agree bitwise
        sp_cfg, asp_cfg = small_config("sp"), small_config("asp")
        sp = M.init_model(sp_cfg, seed=11)
        asp = M.init_model(asp_cfg, seed=11)
        ids = [2, 7, 1, 3]
        t1, t2 = Tape(), Tape()
        r_sp = M.forward(t1, sp.bind(t1), sp_cfg, ids, task=0)
        r_asp = M.forward(t2, asp.bind(t2), asp_cfg, ids, task=0,
                          rev_spec=GradReversalSpec(0.0))
        assert r_sp.class_probs.value.tobytes() == r_asp.class_probs.value.tobytes()


class TestEncode:
    @pytest.mark.parametrize("scheme", ["fs", "sp", "asp"])
    def test_bitwise_equal_to_tape_forward(self, scheme):
        cfg = small_config(scheme, K=3, d=4, e=3, vocab=12)
        params = M.init_model(cfg, seed=21)
        rng = np.random.default_rng(5)
        for task in range(3):
            ids = [int(v) for v in rng.integers(0, 12, size=int(rng.integers(1, 9)))]
            tape = Tape()
            res = M.forward(tape, params.bind(tape), cfg, ids, task)
            enc = M.encode(params, cfg, [ids], task)
            for name in ("class_probs", "disc_probs", "s_T", "h_T"):
                want, got = getattr(res, name), getattr(enc, name)
                assert (want is None) == (got is None), name
                if want is not None:
                    assert got[0].tobytes() == want.value.tobytes(), name
            shared_only = M.encode(params, cfg, [ids])
            assert shared_only.s_T[0].tobytes() == res.s_T.value.tobytes()
            assert shared_only.class_probs is None and shared_only.h_T is None

    @pytest.mark.parametrize("scheme", ["fs", "sp", "asp"])
    def test_batch_equals_each_sentence_alone(self, scheme):
        cfg = small_config(scheme, K=3, d=4, e=3, vocab=12)
        params = M.init_model(cfg, seed=22)
        rng = np.random.default_rng(6)
        batch = [[int(v) for v in rng.integers(0, 12, size=n)] for n in (5, 1, 8, 3)]
        for task in (None, 2):
            enc = M.encode(params, cfg, batch, task)
            assert enc.s_T.shape == (4, cfg.hidden_size)
            for k, ids in enumerate(batch):
                alone = M.encode(params, cfg, [ids], task)
                for name in ("class_probs", "disc_probs", "s_T", "h_T"):
                    want, got = getattr(alone, name), getattr(enc, name)
                    assert (want is None) == (got is None), name
                    if want is not None:
                        npt.assert_allclose(got[k], want[0], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("ids", [[], [9], [1, -1]])
    def test_bad_sentence_rejected(self, ids):
        cfg = small_config("asp")
        params = M.init_model(cfg, seed=0)
        for task in (None, 0):
            with pytest.raises(InputError):
                M.encode(params, cfg, [ids], task)

    @pytest.mark.parametrize("task", [-1, 2])
    def test_unknown_task_rejected(self, task):
        cfg = small_config("sp")
        params = M.init_model(cfg, seed=0)
        with pytest.raises(InputError):
            M.encode(params, cfg, [[1, 2]], task)
        with pytest.raises(InputError):
            M.dump_activations(params, cfg, [[1, 2]], task)


class TestDiscriminate:
    def test_zero_discriminator_uniform(self):
        t = Tape()
        out = M.discriminate(t.constant(np.array([1.0, -1.0])),
                             t.leaf(np.zeros((4, 2))), t.leaf(np.zeros(4)))
        npt.assert_allclose(out.value, [0.25] * 4, rtol=0, atol=1e-15)

    def test_dominant_logit(self):
        t = Tape()
        b = np.zeros(3)
        b[0] = 10.0
        out = M.discriminate(t.constant(np.zeros(2)), t.leaf(np.zeros((3, 2))),
                             t.leaf(b))
        assert out.value[0] > 0.9999

    def test_seeded_against_direct_softmax(self):
        rng = np.random.default_rng(12)
        U, b, s = rng.normal(size=(3, 4)), rng.normal(size=3), rng.normal(size=4)
        t = Tape()
        out = M.discriminate(t.constant(s), t.leaf(U), t.leaf(b))
        npt.assert_allclose(out.value, oracles.softmax_direct((U @ s + b).tolist()),
                            rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        t = Tape()
        with pytest.raises(ShapeError):
            M.discriminate(t.constant(np.zeros(3)), t.leaf(np.zeros((4, 2))),
                           t.leaf(np.zeros(4)))


class TestTransfer:
    @staticmethod
    def _source():
        """A 3-task sp model with d = 3 and e = 2 whose shared layer is transferred."""
        return M.init_model(small_config("sp", K=3, d=3, e=2, vocab=7), seed=0)

    def test_head_widths(self):
        source = self._source()
        sc, sc_cfg = M.build_transfer(source, "sc", "tgt", 2, vocab_size=9, seed=1)
        bc, bc_cfg = M.build_transfer(source, "bc", "tgt", 2, vocab_size=9, seed=1)
        assert sc.tensors["head.0.W"].shape == (2, 3)
        assert bc.tensors["head.0.W"].shape == (2, 6)
        assert sc_cfg.scheme == "fs" and bc_cfg.scheme == "sp"
        assert (sc_cfg.hidden_size, sc_cfg.embed_size, sc_cfg.vocab_size) == (3, 2, 9)
        assert list(bc.tensors) == list(M._tensor_shapes(bc_cfg))

    def test_shared_tensors_are_frozen_copies(self):
        source = self._source()
        params, _ = M.build_transfer(source, "sc", "tgt", 2, vocab_size=9, seed=1)
        assert params.frozen == {"shared.W", "shared.b"}
        for name in ("shared.W", "shared.b"):
            npt.assert_array_equal(params.tensors[name], source.tensors[name])
            assert not np.shares_memory(params.tensors[name], source.tensors[name])

    def test_frozen_not_in_gradient_map(self):
        params, cfg = M.build_transfer(self._source(), "bc", "tgt", 2, vocab_size=9, seed=1)
        tape = Tape()
        bound = params.bind(tape)
        res = M.forward(tape, bound, cfg, [1, 2], task=0)
        loss = L.cross_entropy(res.class_probs, 0)
        grads = ad.backward(tape, loss)
        leaf_names = {n for n, node in bound.items() if node.idx in grads and node.is_leaf}
        assert "shared.W" not in leaf_names and "shared.b" not in leaf_names
        assert "private.0.W" in leaf_names and "embeddings" in leaf_names

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            M.build_transfer(self._source(), "tri", "tgt", 2, vocab_size=9, seed=1)


class TestDumpActivations:
    @staticmethod
    def _states(states, d):
        """The shared and private (None for one layer) columns of dumped states."""
        return states[:, -d:], states[:, :d] if states.shape[1] == 2 * d else None

    @pytest.mark.parametrize("scheme", ["fs", "sp", "asp"])
    def test_states_bitwise_equal_to_tape_forward(self, scheme):
        cfg = small_config(scheme, K=3, d=4, e=3, vocab=12)
        params = M.init_model(cfg, seed=21)
        rng = np.random.default_rng(5)
        for task in range(3):
            ids = [int(v) for v in rng.integers(0, 12, size=int(rng.integers(1, 9)))]
            tape = Tape()
            res = M.forward(tape, params.bind(tape), cfg, ids, task)
            states, _ = M.dump_activations(params, cfg, [ids], task)
            S, H = self._states(states, cfg.hidden_size)
            assert S.tobytes() == res.S.value.tobytes()
            assert (H is None) == (res.H is None)
            if H is not None:
                assert H.tobytes() == res.H.value.tobytes()

    @pytest.mark.parametrize("scheme", ["fs", "sp", "asp"])
    def test_batch_states_equal_each_sentence_alone(self, scheme):
        cfg = small_config(scheme, K=3, d=4, e=3, vocab=12)
        params = M.init_model(cfg, seed=22)
        rng = np.random.default_rng(6)
        batch = [[int(v) for v in rng.integers(0, 12, size=n)] for n in (5, 1, 8, 3)]
        tape = Tape()
        res = M.forward_batch(params.bind(tape), cfg, batch, 2)
        assert res.S.value.shape == (17, cfg.hidden_size)  # one row per token
        states, probs = M.dump_activations(params, cfg, batch, 2)
        assert len(states) == len(probs) == 17
        end = 0
        for ids in batch:
            rows = slice(end, end + len(ids))
            end += len(ids)
            alone_states, alone_probs = M.dump_activations(params, cfg, [ids], 2)
            npt.assert_allclose(probs[rows], alone_probs, rtol=0, atol=1e-12)
            for name, got, in_batch, want in zip(
                    "SH", (res.S, res.H), self._states(states[rows], cfg.hidden_size),
                    self._states(alone_states, cfg.hidden_size)):
                assert (want is None) == (got is None) == (in_batch is None), name
                if want is not None:
                    tokens = np.empty_like(got.value)  # the packed rows in token order
                    tokens[res.packing.rows] = got.value
                    npt.assert_allclose(tokens[rows], want, rtol=0, atol=1e-12, err_msg=name)
                    npt.assert_allclose(in_batch, want, rtol=0, atol=1e-12, err_msg=name)

    def test_record_count_and_consistency(self):
        cfg = small_config("sp", d=3, e=2)
        params = M.init_model(cfg, seed=5)
        ids = [1, 4, 2, 7, 3]
        states, probs = M.dump_activations(params, cfg, [ids], task=0)
        assert states.shape == (len(ids), 2 * cfg.hidden_size)
        assert probs.shape == (len(ids), cfg.classes[0])
        tape = Tape()
        res = M.forward(tape, params.bind(tape), cfg, ids, task=0)
        npt.assert_allclose(probs[-1], res.class_probs.value, rtol=0, atol=1e-12)
        npt.assert_allclose(states[-1], np.concatenate([res.H.value[-1], res.S.value[-1]]),
                            rtol=0, atol=1e-12)

    def test_zero_params_uniform_everywhere(self):
        cfg = small_config("sp", d=3, e=2)
        params = M.init_model(cfg, seed=5)
        for name, arr in params.named_tensors().items():
            arr[...] = 0.0
        states, probs = M.dump_activations(params, cfg, [[1, 2, 3]], task=1)
        npt.assert_array_equal(states, np.zeros((3, 6)))
        npt.assert_allclose(probs, np.full((3, 2), 0.5), rtol=0, atol=1e-15)


class TestCheckpoint:
    def test_save_makes_no_copy_of_a_tensor(self, tmp_path):
        cfg = M.ModelConfig(scheme="fs", task_names=("a",), classes=(2,), hidden_size=2,
                            embed_size=128, vocab_size=5000)
        params = M.init_model(cfg, seed=0)
        size = params.tensors["embeddings"].nbytes
        assert size >= 4 * 2 ** 20
        tracemalloc.start()
        try:
            M.save_checkpoint(tmp_path / "m.bin", params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size
        loaded, _, _ = M.load_checkpoint(tmp_path / "m.bin")
        assert loaded.tensors["embeddings"].tobytes() == params.tensors["embeddings"].tobytes()

    def test_roundtrip(self, tmp_path):
        cfg = small_config("asp", K=3, d=4, e=3, vocab=12)
        params = M.init_model(cfg, seed=9)
        params.frozen = frozenset({"shared.W", "shared.b"})
        path = tmp_path / "model.bin"
        M.save_checkpoint(path, params, cfg, extra={"vocab_sha256": "abc"})
        loaded, loaded_cfg, extra = M.load_checkpoint(path)
        assert loaded_cfg == cfg
        assert extra == {"vocab_sha256": "abc"}
        assert loaded.frozen == params.frozen
        for (n1, a1), (n2, a2) in zip(params.named_tensors().items(),
                                      loaded.named_tensors().items()):
            assert n1 == n2
            npt.assert_array_equal(a1, a2)

    JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8)
        | st.floats(allow_nan=False, allow_infinity=False),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=8)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_roundtrip_property(self, data):
        scheme = data.draw(st.sampled_from(M.SCHEMES))
        K = data.draw(st.integers(2 if scheme == "asp" else 1, 4))
        cfg = M.ModelConfig(scheme=scheme, task_names=tuple(f"t{k}" for k in range(K)),
                            classes=tuple(data.draw(st.lists(st.integers(2, 5), min_size=K,
                                                             max_size=K))),
                            hidden_size=data.draw(st.integers(1, 4)),
                            embed_size=data.draw(st.integers(1, 4)),
                            vocab_size=data.draw(st.integers(2, 12)))
        params = M.init_model(cfg, seed=data.draw(st.integers(0, 2 ** 32 - 1)))
        # one drawn value, subnormals and -0.0 included, must survive bit for bit
        params.tensors["embeddings"][0, 0] = data.draw(
            st.floats(allow_nan=False, allow_infinity=False))
        params.frozen = frozenset(data.draw(st.lists(st.sampled_from(list(params.tensors)),
                                                     unique=True)))
        extra = data.draw(st.dictionaries(st.text(max_size=8), self.JSON, max_size=4))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.bin"
            M.save_checkpoint(path, params, cfg, extra=extra)
            loaded, loaded_cfg, loaded_extra = M.load_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded_extra == extra
        assert loaded.frozen == params.frozen
        want, got = params.named_tensors(), loaded.named_tensors()
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].shape == arr.shape and got[name].tobytes() == arr.tobytes(), name

    def test_byte_stable(self, tmp_path):
        cfg = small_config("sp", d=3)
        params = M.init_model(cfg, seed=2)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        M.save_checkpoint(p1, params, cfg)
        M.save_checkpoint(p2, params, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_records_layout_contracts(self, tmp_path):
        import json
        cfg = small_config("sp", d=3)
        params = M.init_model(cfg, seed=2)
        path = tmp_path / "m.bin"
        M.save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        manifest = json.loads(blob[16:16 + hlen])
        assert manifest["gate_block_order"] == "cbar,o,i,f"
        assert manifest["concat_order"] == "private,shared"
        assert manifest["input_order"] == "x,h"

    def test_reject_non_checkpoint(self, tmp_path):
        from advmtl.errors import DataFormatError
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(DataFormatError):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("corruption", ["missing_tensor", "bad_header",
                                            "huge_header_length", "tensor_without_shape",
                                            "tensor_without_name", "no_tensor_list",
                                            "trailing_bytes", "hidden_size", "embed_size",
                                            "vocab_size", "classes", "tensor_shape",
                                            "nan_weight", "inf_weight", "frozen_not_a_list",
                                            "extra_not_an_object",
                                            "trainable_not_a_bool", "float_size",
                                            "bool_size", "float_shape", "task_names_string",
                                            "task_names_ints", "task_names_repeated",
                                            "frozen_string", "frozen_unknown",
                                            "trainable_true_frozen", "trainable_false_free",
                                            "unknown_field", "tensor_entry_field",
                                            "frozen_missing", "extra_missing",
                                            "float_version", "frozen_unsorted",
                                            "sizes_past_the_end", "task_names_int",
                                            "task_names_null", "task_names_float",
                                            "classes_int", "classes_null", "classes_float"])
    def test_corrupt_checkpoint_is_a_format_error(self, tmp_path, corruption):
        import json
        from advmtl import cli
        from advmtl.errors import DataFormatError
        # bool_size needs a size of 1, which JSON's true equals
        cfg = small_config("asp", K=2, d=3, e=1 if corruption == "bool_size" else 2)
        path = tmp_path / "model.bin"
        frozen_table = corruption == "trainable_true_frozen"
        M.save_checkpoint(path, M.init_model(cfg, seed=2, freeze_embeddings=frozen_table), cfg)
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        header, body = blob[16:16 + hlen], blob[16 + hlen:]
        if corruption == "missing_tensor":
            manifest = json.loads(header)
            dropped = manifest["tensors"].pop()  # disc.b, the last blob
            header = json.dumps(manifest).encode()
            body = body[:-8 * int(np.prod(dropped["shape"]))]
        elif corruption == "bad_header":
            header = b"{" + header[1:-1]
        elif corruption == "trailing_bytes":
            body += b"\0" * 8
        elif corruption in self.HEADER_EDITS:
            manifest = json.loads(header)
            self.HEADER_EDITS[corruption][1](manifest)
            header = json.dumps(manifest).encode()
        elif corruption in ("hidden_size", "embed_size", "vocab_size"):
            manifest = json.loads(header)
            manifest[corruption] += 1  # the tensors keep their sizes
            header = json.dumps(manifest).encode()
        elif corruption == "classes":
            manifest = json.loads(header)
            manifest["classes"][0] += 1
            header = json.dumps(manifest).encode()
        elif corruption.startswith(("frozen_", "task_names_")):
            # "ab" and "shared.W" would load as tuples of single characters
            key, value = {"frozen_not_a_list": ("frozen", 5),
                          "frozen_string": ("frozen", "shared.W"),
                          "frozen_unknown": ("frozen", ["bogus"]),
                          "task_names_string": ("task_names", "ab"),
                          "task_names_ints": ("task_names", [1, 2]),
                          "task_names_repeated": ("task_names", ["a", "a"])}[corruption]
            manifest = json.loads(header)
            manifest[key] = value
            header = json.dumps(manifest).encode()
        elif corruption in ("extra_not_an_object", "trainable_not_a_bool"):
            manifest = json.loads(header)
            if corruption == "extra_not_an_object":
                manifest["extra"] = 3
            else:
                manifest["embeddings_trainable"] = None
            header = json.dumps(manifest).encode()
        elif corruption in ("trainable_true_frozen", "trainable_false_free"):
            # only embeddings_trainable flips, so it and 'frozen' disagree
            manifest = json.loads(header)
            assert manifest["embeddings_trainable"] is not frozen_table
            manifest["embeddings_trainable"] = frozen_table
            header = json.dumps(manifest).encode()
        elif corruption in ("float_size", "bool_size", "float_shape"):
            # each value equals the true size, so only its type is wrong
            manifest = json.loads(header)
            if corruption == "float_size":
                manifest["hidden_size"] = 3.0
            elif corruption == "bool_size":
                manifest["embed_size"] = True
            else:
                entry = next(t for t in manifest["tensors"] if t["name"] == "shared.W")
                entry["shape"] = [12.0, 5.0]
            header = json.dumps(manifest).encode()
        elif corruption == "sizes_past_the_end":
            # a consistent header whose table could never be allocated
            manifest = json.loads(header)
            manifest["vocab_size"] = manifest["tensors"][0]["shape"][0] = 2 ** 62
            header = json.dumps(manifest).encode()
        elif corruption == "tensor_shape":
            manifest = json.loads(header)
            entry = next(t for t in manifest["tensors"] if t["name"] == "shared.b")
            entry["shape"] = [3, 4]  # same element count as [12]
            header = json.dumps(manifest).encode()
        elif corruption.endswith("_weight"):
            # a value inside the shared LSTM's weights, the second tensor
            value = np.array(np.nan if corruption == "nan_weight" else -np.inf, "<f8")
            at = 8 * (cfg.vocab_size * cfg.embed_size + 5)
            body = body[:at] + value.tobytes() + body[at + 8:]
        elif corruption != "huge_header_length":
            manifest = json.loads(header)
            if corruption == "no_tensor_list":
                del manifest["tensors"]
            else:
                del manifest["tensors"][0][corruption.rsplit("_", 1)[1]]
            header = json.dumps(manifest).encode()
        else:
            hlen = 10 ** 12
        if corruption != "huge_header_length":
            hlen = len(header)
        path.write_bytes(blob[:8] + hlen.to_bytes(8, "little") + header + body)
        # each edit of a single field is named in the message
        field = self.HEADER_EDITS.get(corruption, (None,))[0]
        with pytest.raises(DataFormatError, match=field):
            M.load_checkpoint(path)
        assert cli.main(["eval", "--checkpoint", str(path), "--data", str(tmp_path)]) == 2

    # headers that the library never writes, though every value in them is well typed
    # (the field the message names, the edit)
    HEADER_EDITS = {
        "unknown_field": ("'dtype'", lambda m: m.update(dtype="float32")),
        "tensor_entry_field": (r"'tensors\[1\]'",
                               lambda m: m["tensors"][1].update(dtype="<f4")),
        "frozen_missing": ("'frozen'", lambda m: m.pop("frozen")),
        "extra_missing": ("'extra'", lambda m: m.pop("extra")),
        "float_version": ("'format_version'", lambda m: m.update(format_version=1.0)),
        "frozen_unsorted": ("'frozen'", lambda m: m.update(frozen=["shared.b", "embeddings"],
                                                           embeddings_trainable=False)),
        "task_names_int": ("'task_names'", lambda m: m.update(task_names=5)),
        "task_names_null": ("'task_names'", lambda m: m.update(task_names=None)),
        "task_names_float": ("'task_names'", lambda m: m.update(task_names=2.5)),
        "classes_int": ("'classes'", lambda m: m.update(classes=5)),
        "classes_null": ("'classes'", lambda m: m.update(classes=None)),
        "classes_float": ("'classes'", lambda m: m.update(classes=2.5)),
    }

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edited_header_field_is_rejected_or_saved_back(self, data):
        """A saved header with one field replaced fails to load, or loads a model that saves it."""
        import json
        from advmtl.errors import DataFormatError
        cfg = small_config("asp", K=2, d=3, e=2, vocab=5)
        params = M.init_model(cfg, seed=3)
        params.frozen = frozenset(data.draw(st.lists(st.sampled_from(list(params.tensors)),
                                                     unique=True)))
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "model.bin", Path(tmp) / "again.bin"
            M.save_checkpoint(path, params, cfg, extra={"seed": 1})
            blob = path.read_bytes()
            hlen = int.from_bytes(blob[8:16], "little")
            manifest, body = json.loads(blob[16:16 + hlen]), blob[16 + hlen:]
            key = data.draw(st.sampled_from(sorted(manifest) + ["dtype"]), label="field")
            near = [*manifest.values(), 1.0, True, {}, ["disc.W", "disc.b"],
                    ["embeddings", "shared.W"], ["shared.W", "embeddings"]]
            manifest[key] = data.draw(self.JSON | st.sampled_from(near), label="value")
            header = json.dumps(manifest).encode()
            path.write_bytes(blob[:8] + len(header).to_bytes(8, "little") + header + body)
            try:
                loaded, loaded_cfg, extra = M.load_checkpoint(path)
            except DataFormatError:
                return
            M.save_checkpoint(again, loaded, loaded_cfg, extra)
            saved = again.read_bytes()
        hlen = int.from_bytes(saved[8:16], "little")
        resaved = json.loads(saved[16:16 + hlen])
        assert sorted(resaved) == sorted(manifest)
        text = partial(json.dumps, sort_keys=True)  # so 1 is not true or 1.0
        for name, value in manifest.items():
            assert text(resaved[name]) == text(value), name
        assert saved[16 + hlen:] == body

    @pytest.mark.parametrize("fault", ["missing", "reshaped", "reordered", "frozen_unknown"])
    def test_save_rejects_tensors_off_the_layout(self, tmp_path, fault):
        from advmtl.errors import ContractError
        cfg = small_config("asp", K=2, d=3, e=2)
        params = M.init_model(cfg, seed=2)
        tensors = params.tensors
        if fault == "missing":
            del tensors["disc.b"]
        elif fault == "reshaped":
            tensors["shared.b"] = tensors["shared.b"].reshape(3, 4)
        elif fault == "reordered":
            params.tensors = {"shared.W": tensors.pop("shared.W"), **tensors}
        else:
            params.frozen = frozenset({"embeddings", "bogus"})
        with pytest.raises(ContractError):
            M.save_checkpoint(tmp_path / "m.bin", params, cfg)
        assert not (tmp_path / "m.bin").exists()
