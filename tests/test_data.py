import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from advmtl import data as D
from advmtl.errors import ConfigError, DataFormatError, InputError

import oracles


class TestFileParsing:
    def test_toy_file_parsed_exactly(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        lines = [f"{i % 2}\ttok{i} common w{i}" for i in range(10)]
        path.write_text("\n".join(lines) + "\n")
        examples = D.read_labeled_file(path)
        assert len(examples) == 10
        assert [lab for _, lab in examples] == [i % 2 for i in range(10)]
        assert examples[3][0] == ["tok3", "common", "w3"]

    def test_three_field_line_names_the_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\tok text\n0\ta\tb\n")
        with pytest.raises(DataFormatError, match="bad.tsv:2"):
            D.read_labeled_file(path)

    # int() would take "1_0", "+1", " 1" and non-ASCII digits: a label is ASCII digits only
    @pytest.mark.parametrize("label, message", [
        ("pos", "not an integer"), ("1_0", "not an integer"), ("+1", "not an integer"),
        (" 1", "not an integer"), ("1 ", "not an integer"), ("\u0661", "not an integer"),
        ("-1", "negative label -1")],
        ids=["word", "underscore", "plus", "leading_space", "trailing_space", "arabic_digit",
             "negative"])
    def test_non_integer_label(self, tmp_path, label, message):
        path = tmp_path / "bad.tsv"
        path.write_text(f"1\tok text\n{label}\tgood stuff\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"bad.tsv:2: .*{message}"):
            D.read_labeled_file(path)

    @pytest.mark.parametrize("value", ["1_0", "\u0663"], ids=["underscore", "arabic_digit"])
    def test_embedding_value_must_be_an_ascii_float(self, tmp_path, value):
        # float() would load "1_0" as 10.0 and "\u0663" as 3.0
        path = tmp_path / "vectors.txt"
        path.write_text(f"alpha 0.5 1.0\nbeta 0.5 {value}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="vectors.txt:2: 'beta'"):
            D.load_embeddings_text(path, {"alpha": 0, "beta": 1}, np.zeros((2, 2)))

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"1\tok text\n0\tcaf\xc3\xa9 ok\n1\tgood \xff token\n")
        for read in (D.read_labeled_file, D.read_unlabeled_file):
            with pytest.raises(DataFormatError, match=r"bad.tsv:3: not UTF-8 text \(byte 0xff\)"):
                read(path)

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        # a file saved with a BOM: its first vector and first label read as written
        path = tmp_path / "vectors.txt"
        path.write_text("\ufeffalpha 0.5 1.0\nbeta 2.0 3.0\n", encoding="utf-8")
        matrix = np.zeros((2, 2))
        assert D.load_embeddings_text(path, {"alpha": 0, "beta": 1}, matrix) == 2
        assert matrix.tolist() == [[0.5, 1.0], [2.0, 3.0]]
        path = tmp_path / "labeled.tsv"
        path.write_text("\ufeff1\tgood text\n0\tbad\n", encoding="utf-8")
        assert D.read_labeled_file(path) == [(["good", "text"], 1), (["bad"], 0)]

    def test_max_len_caps_sequence(self, tmp_path):
        path = tmp_path / "long.tsv"
        path.write_text("1\t" + " ".join(f"w{i}" for i in range(600)) + "\n")
        (tokens, _), = D.read_labeled_file(path, max_len=500)
        assert len(tokens) == 500


# fragments that make near-miss TSV lines: bad labels, stray tabs, line
# ends of every kind, invalid UTF-8 (a lone 0xff, an encoded surrogate)
FRAGMENTS = st.sampled_from([b"0", b"1", b"-1", b"1_0", b"x", b"\t", b" ", b"tok", b"\n",
                             b"\r", b"\r\n", b"\x00", b"\xc3\xa9", b"\xff",
                             b"\xed\xa0\x80", b"\xe2\x80\xa8"])
RAW_FILES = st.one_of(st.binary(max_size=200), st.lists(FRAGMENTS, max_size=40).map(b"".join))
# characters a token may hold: no whitespace, line ends or control characters
TOKENS = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=8)
FILE_SETTINGS = settings(max_examples=150, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFileProperties:
    @FILE_SETTINGS
    @given(RAW_FILES)
    def test_arbitrary_bytes_parse_or_raise_a_format_error(self, tmp_path, raw):
        path = tmp_path / "any.tsv"
        path.write_bytes(raw)
        try:
            labeled = D.read_labeled_file(path)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert all(tokens and label >= 0 for tokens, label in labeled)
        try:
            unlabeled = D.read_unlabeled_file(path)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert all(unlabeled)

    @FILE_SETTINGS
    @given(st.lists(st.tuples(st.lists(TOKENS, min_size=1, max_size=6),
                              st.integers(0, 10 ** 6)), max_size=10))
    def test_well_formed_files_round_trip(self, tmp_path, examples):
        path = tmp_path / "labeled.tsv"
        path.write_text("".join(f"{label}\t{' '.join(tokens)}\n" for tokens, label in examples),
                        encoding="utf-8")
        assert D.read_labeled_file(path) == examples
        path.write_text("".join(" ".join(tokens) + "\n" for tokens, _ in examples),
                        encoding="utf-8")
        assert D.read_unlabeled_file(path) == [tokens for tokens, _ in examples]


class TestPartition:
    def test_exact_division(self):
        train, dev, test = D.partition(list(range(100)), seed=3)
        assert (len(train), len(dev), len(test)) == (70, 20, 10)

    def test_floor_then_remainder_to_train(self):
        train, dev, test = D.partition(list(range(101)), seed=3)
        assert (len(train), len(dev), len(test)) == (71, 20, 10)

    def test_same_seed_identical(self):
        a = D.partition(list(range(57)), seed=9)
        b = D.partition(list(range(57)), seed=9)
        assert a == b

    def test_swap_dev_test(self):
        train, dev, test = D.partition(list(range(100)), seed=3, swap_dev_test=True)
        assert (len(train), len(dev), len(test)) == (70, 10, 20)

    def test_too_few_examples(self):
        with pytest.raises(InputError):
            D.partition(list(range(9)), seed=0)

    @given(st.integers(10, 2000), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_disjoint_cover(self, n, seed):
        train, dev, test = D.partition(list(range(n)), seed=seed)
        assert len(train) + len(dev) + len(test) == n
        assert len(set(train) | set(dev) | set(test)) == n


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = D.Vocabulary.build([["b", "a", "b"]])
        assert vocab.id_to_token[:2] == [D.PAD_TOKEN, D.UNK_TOKEN]
        assert vocab.token_to_id["b"] == 2  # higher frequency first
        assert vocab.token_to_id["a"] == 3

    def test_stable_ordering(self):
        a = D.Vocabulary.build([["x", "y"], ["z", "x"]])
        b = D.Vocabulary.build([["x", "y"], ["z", "x"]])
        assert a.id_to_token == b.id_to_token

    def test_unseen_tokens_map_to_unk(self, tmp_path):
        root = tmp_path / "corpus"
        tdir = root / "taskA"
        tdir.mkdir(parents=True)
        (tdir / "train.tsv").write_text("1\tgood fine\n0\tbad fine\n")
        (tdir / "dev.tsv").write_text("1\tgood surprise\n")
        (tdir / "test.tsv").write_text("0\tbad mystery\n")
        datasets, vocab = D.load_corpus(root)
        ds = datasets["taskA"]
        assert "surprise" not in vocab.token_to_id
        assert ds.dev[0].tokens[1] == D.UNK_ID
        assert ds.test[0].tokens[1] == D.UNK_ID

    def test_vocab_is_pure_function_of_train_split(self, tmp_path):
        # identical training text, different dev text -> identical vocab
        def build(name, dev_text):
            root = tmp_path / name
            tdir = root / "t"
            tdir.mkdir(parents=True)
            (tdir / "train.tsv").write_text("1\talpha beta\n0\tgamma alpha\n")
            (tdir / "dev.tsv").write_text(dev_text)
            (tdir / "test.tsv").write_text("1\talpha\n")
            return D.load_corpus(root)[1]

        assert build("a", "1\tbeta\n").id_to_token == build("b", "0\tzzz qqq\n").id_to_token


class TestBatches:
    def _dataset(self, n_train=35, n_unlabeled=0):
        exs = [D.Example([i + 2, (i * 3) % 11 + 2], i % 2) for i in range(n_train)]
        unl = [[4, 5]] * n_unlabeled
        return D.TaskDataset(name="t", n_classes=2, train=exs, dev=[], test=[],
                             unlabeled=unl)

    def _draw(self, batcher, steps):
        """Batches in training-loop order: one labeled, then the unlabeled owed."""
        out = []
        for _ in range(steps):
            out.append(batcher.next_labeled(0))
            out.extend(batcher.next_unlabeled(0))
        return out

    def test_batch_sizes(self):
        batcher = D.TaskBatcher([self._dataset(35)], 16, seed=1)
        assert batcher.steps_per_epoch() == 3
        assert [len(b) for b in self._draw(batcher, 3)] == [16, 16, 3]

    def test_unlabeled_alternate_at_ratio_one(self):
        batcher = D.TaskBatcher([self._dataset(32, 40)], 16, seed=1, unlabeled_ratio=1.0)
        out = self._draw(batcher, 2)
        assert [b.is_unlabeled for b in out] == [False, True, False, True]
        assert [len(b) for b in out] == [16, 16, 16, 16]

    def test_unlabeled_credit_at_ratio_half(self):
        batcher = D.TaskBatcher([self._dataset(32, 40)], 16, seed=1, unlabeled_ratio=0.5)
        out = self._draw(batcher, 4)
        assert [b.is_unlabeled for b in out] == [False, False, True, False, False, True]

    def test_deterministic_order(self):
        def passes(seed, n):
            batcher = D.TaskBatcher([self._dataset(50)], 8, seed=seed)
            return [batcher.next_labeled(0).sequences for _ in range(n)]

        a = passes(5, 14)  # two passes of 7 batches
        assert a == passes(5, 14)
        assert a != passes(6, 14)
        first, second = a[:7], a[7:]
        assert first != second  # reshuffled on the second pass
        assert sorted(s for b in first for s in b) == sorted(s for b in second for s in b)

    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    def test_streams_match_the_eager_pass_builder(self, ratio):
        # two tasks of different sizes; no pool is a multiple of the batch size
        datasets = [self._dataset(21, 13), self._dataset(35, 10)]
        for k, ds in enumerate(datasets):
            ds.unlabeled = [[k + 2, i + 2] for i in range(len(ds.unlabeled))]
        size = 8
        # three passes of the largest labeled pool draw more than three passes
        # of every other pool, labeled and unlabeled, at either ratio
        steps = 3 * int(np.ceil(35 / size))
        assert int(steps * 0.5) >= 3 * int(np.ceil(13 / size))
        got = D.TaskBatcher(datasets, size, seed=3, unlabeled_ratio=ratio)
        want = oracles.EagerTaskBatcher(datasets, size, seed=3, unlabeled_ratio=ratio)
        n_unlabeled = 0
        for _ in range(steps):
            for k in range(len(datasets)):
                assert got.next_labeled(k) == want.next_labeled(k)
                batches = got.next_unlabeled(k)
                assert batches == want.next_unlabeled(k)
                n_unlabeled += len(batches)
        assert n_unlabeled == 2 * int(steps * ratio)

    def test_batcher_epoch_length_uses_largest_task(self):
        small = self._dataset(10)
        large = self._dataset(40)
        batcher = D.TaskBatcher([small, large], size=16, seed=0)
        assert batcher.steps_per_epoch() == 3
        for _ in range(6):  # smaller task cycles without exhausting
            assert len(batcher.next_labeled(0)) >= 1


@st.composite
def synth_specs(draw):
    """Small valid ``SynthSpec``s over every generator branch."""
    private = draw(st.integers(0, 5))
    filler = draw(st.integers(0, 5))
    shared_rate, own_rate = draw(st.sampled_from([(0.5, 0.25), (0.0, 0.6), (0.3, 0.0)]))
    # without filler tokens the three rates must leave nothing for filler
    contaminant_rate = (1.0 - shared_rate - own_rate if not filler
                        else draw(st.sampled_from([0.0, 0.1])))
    min_len, tasks = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    return D.SynthSpec(
        tasks=tasks, private_tokens=private,
        shared_tokens=draw(st.integers(0 if private else tasks + 1, 9)),
        conflict_fraction=1.0, filler_tokens=filler,
        sentences_per_task=draw(st.integers(10, 20)),
        unlabeled_per_task=draw(st.integers(0, 4)),
        min_len=min_len, max_len=min_len + draw(st.integers(0, 3)),
        min_margin=draw(st.integers(1, 5)), noise_rate=draw(st.sampled_from([0.0, 0.2])),
        shared_rate=shared_rate, own_rate=own_rate, contaminant_rate=contaminant_rate,
        domain_bias=draw(st.sampled_from([0.0, 3.0])), seed=draw(st.integers(0, 2 ** 40)))


# specs that once loaded as if the value were 0, or the nearest end of
# [0, 1]: each names the key it gets wrong
NEGATIVE_SPECS = [
    ("unlabeled_per_task", dict(unlabeled_per_task=-1)),
    ("shared_tokens", dict(shared_tokens=-1)),
    ("private_tokens", dict(private_tokens=-1)),
    ("filler_tokens", dict(filler_tokens=-1, shared_rate=0.5, own_rate=0.4,
                           contaminant_rate=0.1)),  # no filler drawn
    ("conflict_fraction", dict(conflict_fraction=1.5)),
    ("conflict_fraction", dict(conflict_fraction=-0.5, private_tokens=0)),
]


class TestSynthetic:
    GOLDEN = {  # sha256 of each corpus and its provenance, as generated before any speed-up
        "three_tasks_biased": (
            dict(tasks=3, sentences_per_task=60, unlabeled_per_task=10, seed=7),
            "d738ca67cec22ff5ca5b5c862e9f27ccecfd76071573cce97594180f634b9fd1"),
        "two_tasks_unbiased": (
            dict(tasks=2, sentences_per_task=40, domain_bias=0.0, seed=3),
            "cad516610a9165f4592c34ae1ebd5a4fe41a0ecfe4ec6f5e8ef2501b488946dc"),
        # two drawn tokens can never reach margin 3, so every sentence is padded
        "fixed_length_padded": (
            dict(tasks=2, sentences_per_task=30, min_len=2, max_len=2, min_margin=3, seed=4),
            "d202298b154573084fadc81e3c358f049ec1d8c19fe6223533b9113e2a3e3f7e"),
    }

    @pytest.mark.parametrize("fields,digest", GOLDEN.values(), ids=list(GOLDEN))
    def test_generated_stream_is_pinned(self, fields, digest):
        raw, prov = D.generate_synthetic(D.SynthSpec(**fields))
        doc = {"corpus": {name: {"n_classes": t.n_classes, "splits": t.splits,
                                 "unlabeled": t.unlabeled} for name, t in raw.items()},
               "provenance": prov}
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest

    # bounded-draw sizes at the edges of the 32-bit words: no word consumed
    # (1), rejection never (2) or most often (2**31 + 1), a whole word (2**32)
    EDGE_N = (1, 2, 3, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32)

    @staticmethod
    def _replay(seed, ops):
        """Run ``ops`` (None: ``random()``, n: ``integers(n)``) on both generators."""
        ours, numpy = D._RawDraws(seed), np.random.default_rng(seed)
        got = [ours.random() if n is None else ours.integers(n) for n in ops]
        want = [numpy.random() if n is None else int(numpy.integers(n)) for n in ops]
        return got, want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), data=st.data())
    def test_raw_draws_match_generator(self, seed, data):
        ops = data.draw(st.lists(st.none() | st.integers(1, 2 ** 32), max_size=60))
        ops = data.draw(st.permutations(ops + list(self.EDGE_N)), label="ops")
        got, want = self._replay(seed, ops)
        assert [type(v) for v in got] == [type(v) for v in want]
        assert got == want

    def test_raw_draws_match_generator_across_chunks(self):
        ops = [None, 2 ** 31 + 1, 7, None, 2 ** 32] * (3 * D._RAW_CHUNK // 4)
        got, want = self._replay((5, 1), ops)
        assert got == want

    @pytest.mark.parametrize("n", [0, -3, 2 ** 32 + 1])
    def test_raw_draws_reject_a_size_off_the_32_bit_range(self, n):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            D._RawDraws(0).integers(n)

    @settings(max_examples=40, deadline=None)
    @given(spec=synth_specs())
    @example(spec=D.SynthSpec(tasks=2, private_tokens=0, shared_tokens=6, filler_tokens=0,
                              shared_rate=0.6, own_rate=0.3, contaminant_rate=0.1,
                              sentences_per_task=12, noise_rate=0.0, seed=1))
    @example(spec=D.SynthSpec(tasks=3, sentences_per_task=12, min_len=2, max_len=2,
                              min_margin=4, domain_bias=8.0, unlabeled_per_task=5, seed=2))
    def test_generated_corpus_matches_scalar_oracle(self, spec):
        assert D.generate_synthetic(spec) == oracles.generate_synthetic_scalar(spec)

    def test_reproducible(self):
        spec = D.SynthSpec(tasks=3, sentences_per_task=40, seed=5)
        a, prov_a = D.generate_synthetic(spec)
        b, prov_b = D.generate_synthetic(spec)
        assert prov_a == prov_b
        for name in a:
            assert a[name].splits == b[name].splits
            assert a[name].unlabeled == b[name].unlabeled

    def test_conflicting_token_exists_and_flips_labels(self):
        spec = D.SynthSpec(tasks=2, sentences_per_task=40, seed=1)
        _, prov = D.generate_synthetic(spec)
        conflicts = [r for r in prov if r[1] == "conflict"]
        assert conflicts
        by_token = {}
        for token, _, task, pol in conflicts:
            by_token.setdefault(token, {})[task] = pol
        token, pols = next(iter(by_token.items()))
        assert len(pols) == 2
        assert sum(pols.values()) == 0  # opposite polarity in the two tasks

    def test_noise_free_labels_recomputable_from_provenance(self):
        spec = D.SynthSpec(tasks=2, sentences_per_task=50, noise_rate=0.0,
                           contaminant_rate=0.0, seed=3)
        raw, prov = D.generate_synthetic(spec)
        pol = {}
        for token, kind, task, p in prov:
            if kind == "shared":
                for name in raw:
                    pol.setdefault(name, {})[token] = p
            elif kind in ("private", "conflict"):
                pol.setdefault(task, {})[token] = p
        for name, task in raw.items():
            for split in task.splits.values():
                for tokens, label in split:
                    score = sum(pol[name].get(t, 0) for t in tokens)
                    assert score != 0
                    assert label == (1 if score > 0 else 0)

    def test_label_balance(self):
        spec = D.SynthSpec(tasks=4, sentences_per_task=2000, seed=1)
        raw, _ = D.generate_synthetic(spec)
        for task in raw.values():
            labels = [lab for split in task.splits.values() for _, lab in split]
            frac = np.mean(labels)
            assert 0.48 <= frac <= 0.52

    def test_split_proportions(self):
        spec = D.SynthSpec(tasks=2, sentences_per_task=2000, seed=0)
        raw, _ = D.generate_synthetic(spec)
        for task in raw.values():
            assert len(task.splits["train"]) == 1400
            assert len(task.splits["dev"]) == 400
            assert len(task.splits["test"]) == 200

    def test_degenerate_specs_rejected(self):
        with pytest.raises(ConfigError):
            D.SynthSpec(tasks=2, shared_tokens=0, private_tokens=0)
        with pytest.raises(ConfigError, match="both polarities"):
            D.SynthSpec(tasks=3, shared_tokens=3, private_tokens=0)
        with pytest.raises(ConfigError):
            D.SynthSpec(tasks=1)
        with pytest.raises(ConfigError):
            D.SynthSpec(tasks=2, private_tokens=4, conflict_fraction=0.0)
        with pytest.raises(ConfigError):
            D.SynthSpec(tasks=2, noise_rate=0.7)
        with pytest.raises(ConfigError):
            D.SynthSpec(tasks=2, shared_rate=0.9, own_rate=0.3)

    @pytest.mark.parametrize("key,fields", NEGATIVE_SPECS, ids=[k for k, _ in NEGATIVE_SPECS])
    def test_negative_counts_and_fraction_rejected(self, key, fields):
        with pytest.raises(ConfigError, match=key):
            D.SynthSpec(tasks=2, **fields)

    def test_roundtrip_through_disk(self, tmp_path):
        spec = D.SynthSpec(tasks=2, sentences_per_task=60, unlabeled_per_task=15,
                           seed=8)
        raw, prov = D.generate_synthetic(spec)
        out = tmp_path / "corpus"
        D.write_corpus(out, raw, prov)
        datasets, vocab = D.load_corpus(out)
        datasets2, vocab2 = D.load_corpus(out)
        assert vocab.id_to_token == vocab2.id_to_token
        for name in datasets:
            for split in ("train", "dev", "test"):
                a = datasets[name].split(split)
                b = datasets2[name].split(split)
                assert [(x.tokens, x.label) for x in a] == [(x.tokens, x.label) for x in b]
            assert datasets[name].unlabeled == datasets2[name].unlabeled
        # text content survives the trip: re-encode the raw corpus directly
        direct, direct_vocab = D.encode_corpus(raw)
        assert direct_vocab.id_to_token == vocab.id_to_token
        for name in direct:
            got = [(x.tokens, x.label) for x in datasets[name].train]
            want = [(x.tokens, x.label) for x in direct[name].train]
            assert got == want

    def test_embedding_vectors_stable_across_subsets(self):
        a = D.synth_embedding_vectors(["tok1", "tok2"], 8, seed=4)
        b = D.synth_embedding_vectors(["tok2"], 8, seed=4)
        np.testing.assert_array_equal(a["tok2"], b["tok2"])

    def test_embeddings_file_roundtrip(self, tmp_path):
        vecs = D.synth_embedding_vectors(["alpha", "beta"], 4, seed=2)
        path = tmp_path / "vectors.txt"
        D.write_embeddings_text(path, vecs)
        matrix = np.zeros((3, 4))
        loaded = D.load_embeddings_text(path, {"alpha": 1, "beta": 2}, matrix)
        assert loaded == 2
        np.testing.assert_array_equal(matrix[1], vecs["alpha"])


class TestLoadCorpus:
    def test_missing_layout_reports_task(self, tmp_path):
        root = tmp_path / "corpus"
        (root / "taskA").mkdir(parents=True)
        with pytest.raises(InputError, match="taskA"):
            D.load_corpus(root)

    def test_single_file_layout_partitions(self, tmp_path):
        root = tmp_path / "corpus"
        tdir = root / "taskA"
        tdir.mkdir(parents=True)
        lines = [f"{i % 2}\tw{i} w{(i * 7) % 23}" for i in range(100)]
        (tdir / "labeled.tsv").write_text("\n".join(lines) + "\n")
        datasets, _ = D.load_corpus(root, seed=4)
        c = datasets["taskA"].counts()
        assert (c["train"], c["dev"], c["test"]) == (70, 20, 10)

    def test_table1_layout_when_corpus_present(self):
        root = os.environ.get("ADVMTL_REVIEW_CORPUS")
        if not root or not os.path.isdir(os.path.join(root, "Books")):
            pytest.skip("16-task review corpus not present")
        datasets, _ = D.load_corpus(root)
        books = datasets["Books"].counts()
        assert (books["train"], books["dev"], books["test"], books["unlabeled"]) == \
            (1400, 200, 400, 2000)
