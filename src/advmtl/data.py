"""Corpus ingestion, vocabulary, splits, batching, synthetic benchmark, embedding files.

On-disk layout: one directory per task. Labeled files hold one example
per line as ``label<TAB>token token token ...`` (text is pre-tokenized);
unlabeled files hold just the token line. A task directory either ships
pre-split files (``train.tsv``/``dev.tsv``/``test.tsv``) or one
``labeled.tsv`` that gets partitioned 70/20/10 by seed. ``unlabeled.tsv``
is optional in both layouts.

The synthetic generator builds K sentiment-like tasks whose private
vocabularies conflict: the same token is positive in one task and
negative in another, so a fully shared feature space is actively harmful.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError, InputError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

DEFAULT_MAX_LEN = 500

SPLIT_FILES = {"train": "train.tsv", "dev": "dev.tsv", "test": "test.tsv"}
UNLABELED_FILE = "unlabeled.tsv"
SINGLE_FILE = "labeled.tsv"
PROVENANCE_FILE = "provenance.tsv"


@dataclass
class Example:
    tokens: list[int]
    label: int


@dataclass
class TaskDataset:
    name: str
    n_classes: int
    train: list[Example]
    dev: list[Example]
    test: list[Example]
    unlabeled: list[list[int]] = field(default_factory=list)

    def split(self, name: str) -> list[Example]:
        try:
            return {"train": self.train, "dev": self.dev, "test": self.test}[name]
        except KeyError:
            raise InputError(f"unknown split '{name}'") from None

    def counts(self) -> dict[str, int]:
        return {"train": len(self.train), "dev": len(self.dev),
                "test": len(self.test), "unlabeled": len(self.unlabeled)}


@dataclass
class Vocabulary:
    """Token -> id map; id 0 is padding, id 1 is the unknown token."""

    id_to_token: list[str]
    token_to_id: dict[str, int]

    @classmethod
    def build(cls, token_lists: Iterable[Sequence[str]]) -> "Vocabulary":
        """Canonical vocabulary over training text: by frequency, ties by token."""
        counts = Counter(itertools.chain.from_iterable(token_lists))
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        id_to_token = [PAD_TOKEN, UNK_TOKEN] + ordered
        return cls(id_to_token=id_to_token,
                   token_to_id={t: i for i, t in enumerate(id_to_token)})

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return list(map(self.token_to_id.get, tokens, itertools.repeat(UNK_ID)))

    def sha256(self) -> str:
        h = hashlib.sha256()
        for t in self.id_to_token:
            h.update(t.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


@dataclass
class Batch:
    task: int
    sequences: list[list[int]]
    labels: list[int] | None
    is_unlabeled: bool = False

    def __len__(self) -> int:
        return len(self.sequences)


# ---------------------------------------------------------------------------
# raw (text-level) corpora and files
# ---------------------------------------------------------------------------

RawExample = tuple[list[str], int]


@dataclass
class RawTask:
    name: str
    n_classes: int
    splits: dict[str, list[RawExample]]
    unlabeled: list[list[str]] = field(default_factory=list)


RawCorpus = dict[str, RawTask]


def text_lines(path, error: type[Exception] = DataFormatError):
    """Yield ``(line_number, line)`` for each line of a UTF-8 text file, from 1.

    A line that is not valid UTF-8 raises ``error`` naming the file and the
    line. Bytes that do not decode become lone surrogates, which a valid
    file cannot hold, so only a line that is not ASCII is checked.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise error(f"{path}:{ln}: not UTF-8 text (byte "
                                f"0x{ord(line[exc.start]) & 0xFF:02x})") from None
            yield ln, line


def read_labeled_file(path, max_len: int = DEFAULT_MAX_LEN) -> list[RawExample]:
    out: list[RawExample] = []
    for ln, line in text_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(
                f"{path}:{ln}: expected 'label<TAB>text', got {len(parts)} fields")
        label_text, text = parts
        try:
            label = int(label_text)
        except ValueError:
            raise DataFormatError(
                f"{path}:{ln}: label '{label_text}' is not an integer") from None
        if label < 0:
            raise DataFormatError(f"{path}:{ln}: negative label {label}")
        tokens = text.split()
        if not tokens:
            raise DataFormatError(f"{path}:{ln}: empty token sequence")
        out.append((tokens[:max_len], label))
    return out


def read_unlabeled_file(path, max_len: int = DEFAULT_MAX_LEN) -> list[list[str]]:
    out = []
    for _, line in text_lines(path):
        tokens = line.split()
        if tokens:
            out.append(tokens[:max_len])
    return out


def partition(examples: Sequence, seed: int,
              swap_dev_test: bool = False) -> tuple[list, list, list]:
    """Shuffle once, then cut into train/dev/test at 70/20/10.

    Dev and test sizes are floored; the remainder goes to train
    (101 examples -> 71/20/10). ``swap_dev_test`` flips the two smaller
    fractions to dev 10% / test 20%.
    """
    n = len(examples)
    if n < 10:
        raise InputError(f"cannot partition {n} examples; need at least 10")
    frac_dev, frac_test = (0.1, 0.2) if swap_dev_test else (0.2, 0.1)
    n_dev = int(np.floor(frac_dev * n))
    n_test = int(np.floor(frac_test * n))
    n_train = n - n_dev - n_test
    perm = np.random.default_rng(seed).permutation(n)
    pick = lambda idx: [examples[i] for i in idx]
    return (pick(perm[:n_train]),
            pick(perm[n_train:n_train + n_dev]),
            pick(perm[n_train + n_dev:]))


def load_raw_corpus(root, seed: int = 0, swap_dev_test: bool = False,
                    max_len: int = DEFAULT_MAX_LEN) -> RawCorpus:
    """Read every task directory under ``root`` into text-level datasets."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if not os.path.isdir(root):
        raise InputError(f"corpus root '{root}' is not a directory")
    task_dirs = sorted(d for d in os.listdir(root)
                       if os.path.isdir(os.path.join(root, d)))
    if not task_dirs:
        raise InputError(f"corpus root '{root}' contains no task directories")
    corpus: RawCorpus = {}
    for name in task_dirs:
        tdir = os.path.join(root, name)
        split_paths = {s: os.path.join(tdir, f) for s, f in SPLIT_FILES.items()}
        if all(os.path.isfile(p) for p in split_paths.values()):
            splits = {s: read_labeled_file(p, max_len) for s, p in split_paths.items()}
        elif os.path.isfile(os.path.join(tdir, SINGLE_FILE)):
            labeled = read_labeled_file(os.path.join(tdir, SINGLE_FILE), max_len)
            train, dev, test = partition(labeled, seed, swap_dev_test)
            splits = {"train": train, "dev": dev, "test": test}
        else:
            raise InputError(
                f"task '{name}': expected {sorted(SPLIT_FILES.values())} or "
                f"{SINGLE_FILE} under {tdir}")
        if not splits["train"]:
            raise InputError(f"task '{name}': empty training split")
        labels = [lab for exs in splits.values() for _, lab in exs]
        n_classes = max(labels) + 1
        if n_classes < 2:
            raise InputError(f"task '{name}': fewer than 2 classes")
        unl_path = os.path.join(tdir, UNLABELED_FILE)
        unlabeled = read_unlabeled_file(unl_path, max_len) if os.path.isfile(unl_path) else []
        corpus[name] = RawTask(name=name, n_classes=n_classes,
                               splits=splits, unlabeled=unlabeled)
    return corpus


def encode_corpus(raw: RawCorpus) -> tuple[dict[str, TaskDataset], Vocabulary]:
    """Build the joint train-split vocabulary and encode every sentence.

    Dev/test/unlabeled tokens unseen in training map to the UNK id.
    """
    vocab = Vocabulary.build(tokens for task in raw.values()
                             for tokens, _ in task.splits["train"])
    datasets: dict[str, TaskDataset] = {}
    for name in sorted(raw):
        task = raw[name]
        enc = {s: [Example(vocab.encode(toks), lab) for toks, lab in exs]
               for s, exs in task.splits.items()}
        datasets[name] = TaskDataset(
            name=name, n_classes=task.n_classes,
            train=enc["train"], dev=enc["dev"], test=enc["test"],
            unlabeled=[vocab.encode(toks) for toks in task.unlabeled])
    return datasets, vocab


def load_corpus(root, seed: int = 0, swap_dev_test: bool = False,
                max_len: int = DEFAULT_MAX_LEN) -> tuple[dict[str, TaskDataset], Vocabulary]:
    """Full ingestion: read, split if needed, build vocabulary, encode."""
    return encode_corpus(load_raw_corpus(root, seed, swap_dev_test, max_len))


def write_corpus(out_dir, raw: RawCorpus,
                 provenance: list[tuple[str, str, str, int]] | None = None) -> None:
    """Write text-level datasets in the loadable directory layout."""
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(raw):
        task = raw[name]
        tdir = os.path.join(out_dir, name)
        os.makedirs(tdir, exist_ok=True)
        for split, fname in SPLIT_FILES.items():
            with open(os.path.join(tdir, fname), "w", encoding="utf-8") as fh:
                for tokens, label in task.splits[split]:
                    fh.write(f"{label}\t{' '.join(tokens)}\n")
        if task.unlabeled:
            with open(os.path.join(tdir, UNLABELED_FILE), "w", encoding="utf-8") as fh:
                for tokens in task.unlabeled:
                    fh.write(" ".join(tokens) + "\n")
    if provenance is not None:
        with open(os.path.join(out_dir, PROVENANCE_FILE), "w", encoding="utf-8") as fh:
            for token, kind, task_name, polarity in provenance:
                fh.write(f"{token}\t{kind}\t{task_name}\t{polarity}\n")


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

class TaskBatcher:
    """Per-task cycling batch streams for round-robin training.

    Each (task, pool) is one endless stream of passes. Every pass
    reshuffles with a seed derived from (base seed, task, pass index,
    pool), so runs are reproducible and smaller tasks cycle seamlessly
    while the largest completes one pass per epoch.
    """

    def __init__(self, datasets: Sequence[TaskDataset], size: int, seed: int,
                 unlabeled_ratio: float = 1.0):
        if size < 1:
            raise ConfigError(f"batch size must be >= 1, got {size}")
        self.datasets = list(datasets)
        self.size = size
        self.seed = seed
        self.unlabeled_ratio = unlabeled_ratio
        self._labeled = [self._passes(t, False) for t in range(len(self.datasets))]
        self._unlabeled = [self._passes(t, True) for t in range(len(self.datasets))]
        self._credit = [0.0 for _ in self.datasets]

    def _passes(self, task: int, unlabeled: bool):
        """The batches of one pool, pass after pass; nothing for an empty pool."""
        ds = self.datasets[task]
        pool = ds.unlabeled if unlabeled else ds.train
        if not pool:
            return
        for pass_idx in itertools.count():
            rng = np.random.default_rng((self.seed, task, pass_idx, int(unlabeled)))
            order = rng.permutation(len(pool))
            for start in range(0, len(pool), self.size):
                chunk = [pool[i] for i in order[start:start + self.size]]
                if unlabeled:
                    yield Batch(task, chunk, None, True)
                else:
                    yield Batch(task, [ex.tokens for ex in chunk], [ex.label for ex in chunk])

    def steps_per_epoch(self) -> int:
        """Batches in one pass over the largest task's training split."""
        biggest = max(len(ds.train) for ds in self.datasets)
        return int(np.ceil(biggest / self.size))

    def next_labeled(self, task: int) -> Batch:
        return next(self._labeled[task])

    def next_unlabeled(self, task: int) -> list[Batch]:
        """Unlabeled batches owed after one labeled batch (credit scheme)."""
        if not self.datasets[task].unlabeled:
            return []
        out = []
        self._credit[task] += self.unlabeled_ratio
        while self._credit[task] >= 1.0:
            self._credit[task] -= 1.0
            out.append(next(self._unlabeled[task]))
        return out


# ---------------------------------------------------------------------------
# synthetic conflicting-polarity benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a K-task corpus with cross-task polarity conflicts.

    Every task mixes globally consistent "shared" sentiment tokens,
    its own polar tokens, contaminants (tokens polar in another task but
    neutral here), and neutral filler. A slice of each task's polar
    vocabulary is paired with the next task at opposite polarity, which
    guarantees at least one token means opposite things in two tasks.

    ``domain_bias`` skews which shared and filler tokens each task prefers
    (polarity stays globally consistent; only usage frequency differs), the
    way real review domains share sentiment words but differ in register and
    jargon. Bias 0 draws uniformly; bias b makes a token's home task prefer
    it (1+b):1 over the others. With bias on, each sentence also ends with a
    domain-flavored neutral token (reviews tend to close on the product),
    which keeps the domain signature visible in a recency-weighted encoder.
    """

    tasks: int = 4
    shared_tokens: int = 120
    private_tokens: int = 12
    conflict_fraction: float = 0.5
    filler_tokens: int = 40
    sentences_per_task: int = 2000
    unlabeled_per_task: int = 0
    min_len: int = 6
    max_len: int = 10
    min_margin: int = 1
    noise_rate: float = 0.05
    shared_rate: float = 0.5
    own_rate: float = 0.25
    contaminant_rate: float = 0.10
    domain_bias: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # before any check or property reads a NaN or inf
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.tasks < 2:
            raise ConfigError("synthetic benchmark needs at least 2 tasks")
        if self.shared_tokens <= 0 and self.private_tokens <= 0:
            raise ConfigError("need shared or private tokens (both are zero)")
        if self.private_tokens <= 0 and self.shared_tokens <= self.tasks:
            # shared polarity alternates per window of `tasks` tokens
            raise ConfigError(
                f"without private tokens, shared_tokens must exceed tasks ({self.tasks}): "
                "the first window of shared tokens is all positive, and a corpus "
                "needs tokens of both polarities")
        if self.private_tokens > 0 and self.n_conflict < 1:
            raise ConfigError(
                "conflict_fraction leaves no conflicting token; the benchmark "
                "requires at least one cross-task polarity conflict")
        if not 0 <= self.noise_rate < 0.5:
            raise ConfigError(f"noise_rate must be in [0, 0.5), got {self.noise_rate}")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise ConfigError(
                f"bad length range [{self.min_len}, {self.max_len}]")
        if self.min_margin < 1:
            raise ConfigError(f"min_margin must be >= 1, got {self.min_margin}")
        if self.domain_bias < 0:
            raise ConfigError(f"domain_bias must be >= 0, got {self.domain_bias}")
        rates = (self.shared_rate, self.own_rate, self.contaminant_rate)
        if any(r < 0 for r in rates) or sum(rates) > 1.0 + 1e-12:
            raise ConfigError("category rates must be >= 0 and sum to <= 1")
        if self.filler_rate > 1e-12 and self.filler_tokens <= 0:
            raise ConfigError("filler rate is positive but there are no filler tokens")
        if self.sentences_per_task < 10:
            raise ConfigError("need at least 10 sentences per task to split")

    @property
    def n_conflict(self) -> int:
        return int(round(self.private_tokens * self.conflict_fraction))

    @property
    def filler_rate(self) -> float:
        return 1.0 - self.shared_rate - self.own_rate - self.contaminant_rate


def _synth_vocab(spec: SynthSpec):
    """Token pools and per-task polarity maps; returns (pols, pools, provenance)."""
    task_names = [f"task{k:02d}" for k in range(spec.tasks)]
    polarity = {name: {} for name in task_names}
    provenance: list[tuple[str, str, str, int]] = []
    shared_pool = []
    for i in range(spec.shared_tokens):
        tok = f"sh{i:03d}"
        # alternate polarity within each domain window (i % K names the
        # window, i // K alternates sign), so domain bias stays label-neutral
        pol = 1 if (i // spec.tasks) % 2 == 0 else -1
        shared_pool.append(tok)
        provenance.append((tok, "shared", "*", pol))
        for name in task_names:
            polarity[name][tok] = pol
    for k, name in enumerate(task_names):
        nxt = task_names[(k + 1) % spec.tasks]
        for i in range(spec.private_tokens):
            tok = f"pv{k:02d}_{i:02d}"
            pol = 1 if i % 2 == 0 else -1
            polarity[name][tok] = pol
            if i < spec.n_conflict:
                polarity[nxt][tok] = -pol
                provenance.append((tok, "conflict", name, pol))
                provenance.append((tok, "conflict", nxt, -pol))
            else:
                provenance.append((tok, "private", name, pol))
    filler_pool = []
    for i in range(spec.filler_tokens):
        tok = f"nt{i:03d}"
        filler_pool.append(tok)
        home = task_names[i % spec.tasks] if spec.domain_bias > 0 else "*"
        provenance.append((tok, "filler", home, 0))
    own_only = {name: sorted(set(polarity[name]) - set(shared_pool))
                for name in task_names}
    contam_pool = {}
    for name in task_names:
        polar_here = set(polarity[name])
        others = sorted({tok for other in task_names if other != name
                         for tok in own_only[other]} - polar_here)
        contam_pool[name] = others
    return task_names, polarity, shared_pool, own_only, contam_pool, filler_pool, provenance


_RAW_CHUNK = 4096  # PCG64 outputs drawn at once


class _RawDraws:
    """``Generator.random()`` and ``int(Generator.integers(n))`` from PCG64's raw outputs.

    Returns what ``np.random.default_rng(seed)`` would, value for value and
    in the same order, for 1 <= n <= 2**32. The stream is the 64-bit outputs
    of ``np.random.PCG64(seed)``, drawn ``_RAW_CHUNK`` at a time:

    - ``random()`` takes one output; its top 53 bits times 2**-53.
    - ``integers(n)`` is Lemire's bounded draw over 32-bit words (Lemire,
      "Fast Random Integer Generation in an Interval", ACM TOMACS 2019). A
      word is the low half of a fresh output, or the high half the last
      fresh output left; ``random()`` leaves that half in place. Word w
      gives ``w * n >> 32`` unless ``w * n mod 2**32 < 2**32 mod n``; then
      the next word is tried. ``n == 1`` consumes nothing.
    """

    __slots__ = ("_bitgen", "_raw", "_unit", "_pos", "_high")

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._pos = _RAW_CHUNK  # the first draw fills the chunk
        self._high: int | None = None

    def _refill(self) -> None:
        raw = self._bitgen.random_raw(_RAW_CHUNK)
        self._raw = raw.tolist()
        self._unit = ((raw >> np.uint64(11)) * 2.0 ** -53).tolist()
        self._pos = 0

    def random(self) -> float:
        if self._pos == _RAW_CHUNK:
            self._refill()
        pos = self._pos
        self._pos = pos + 1
        return self._unit[pos]

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            raise ValueError(f"bounded draw needs 1 <= n <= 2**32, got {n}")
        threshold = (1 << 32) % n
        while True:
            word = self._high
            if word is None:
                if self._pos == _RAW_CHUNK:
                    self._refill()
                out = self._raw[self._pos]
                self._pos += 1
                word, self._high = out & 0xFFFFFFFF, out >> 32
            else:
                self._high = None
            m = word * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


def _synth_sentence(rng: _RawDraws, spec: SynthSpec, pol_map, shared_pool, shared_cum,
                    own_pool, contam_pool, filler_pool, filler_cum
                    ) -> tuple[list[str], int]:
    cut_shared = spec.shared_rate
    cut_own = cut_shared + spec.own_rate
    cut_contam = cut_own + spec.contaminant_rate
    polar_fallback = own_pool if own_pool else shared_pool
    random, integers = rng.random, rng.integers
    n_lengths = spec.max_len + 1 - spec.min_len

    def draw():
        length = spec.min_len + integers(n_lengths)
        tokens = []
        for _ in range(length):
            u = random()
            if u < cut_shared and shared_pool:
                tokens.append(shared_pool[bisect_left(shared_cum, random())])
                continue
            elif u < cut_own and own_pool:
                pool = own_pool
            elif u < cut_contam and contam_pool:
                pool = contam_pool
            elif filler_pool:
                tokens.append(filler_pool[bisect_left(filler_cum, random())])
                continue
            else:
                pool = polar_fallback
            tokens.append(pool[integers(len(pool))])
        return tokens, sum(map(pol_map.get, tokens, itertools.repeat(0)))

    # rejection-sample for a clear class margin, then pad as a last resort
    tokens, score = draw()
    for _ in range(50):
        if abs(score) >= spec.min_margin:
            break
        tokens, score = draw()
    while abs(score) < spec.min_margin:
        want = 1 if (score > 0 or (score == 0 and random() < 0.5)) else -1
        pool = [t for t in polar_fallback if pol_map[t] == want]
        extra = pool[integers(len(pool))]
        tokens.append(extra)
        score += want
    if spec.domain_bias > 0 and filler_pool:
        tokens.append(filler_pool[bisect_left(filler_cum, random())])
    label = 1 if score > 0 else 0
    if spec.noise_rate > 0 and random() < spec.noise_rate:
        label = 1 - label
    return tokens, label


def synth_embedding_vectors(tokens: Sequence[str], dim: int, seed: int,
                            scale: float = 1.0) -> dict[str, np.ndarray]:
    """Pretrained-style vectors for a synthetic vocabulary.

    Each token's vector depends only on (token, seed, dim, scale), so any
    subset or ordering yields the same vectors. Scale ~1 per dimension
    mirrors the norm of real pretrained embeddings, which the uniform
    [-0.1, 0.1] fallback deliberately lacks.
    """
    out = {}
    for tok in tokens:
        digest = hashlib.sha256(f"{seed}:{tok}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        out[tok] = rng.normal(0.0, scale, dim)
    return out


def write_embeddings_text(path, vectors: Mapping[str, np.ndarray]) -> None:
    """Write token vectors in the standard text layout (token v1 .. vd)."""
    with open(path, "w", encoding="utf-8") as fh:
        for tok in sorted(vectors):
            vals = " ".join(repr(float(v)) for v in vectors[tok])
            fh.write(f"{tok} {vals}\n")


def load_embeddings_text(path, token_to_id: dict[str, int], matrix: np.ndarray) -> int:
    """Overwrite rows of ``matrix`` with vectors from a text embedding file.

    Format: one token per line followed by ``dim`` whitespace-separated
    floats. Lines whose token is not in ``token_to_id`` are skipped. A
    line of a known token with the wrong width, a value that is not a
    float, a NaN or infinite value, a second line of the same known token,
    or a line that is not UTF-8 raises :class:`DataFormatError`. Returns
    the number of rows loaded.
    """
    dim = matrix.shape[1]
    seen: dict[str, int] = {}  # line of each known token
    for ln, line in text_lines(path):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        token = parts[0]
        idx = token_to_id.get(token)
        if idx is None:
            continue
        if token in seen:
            raise DataFormatError(
                f"{path}:{ln}: '{token}' already has a vector on line {seen[token]}")
        seen[token] = ln
        if len(parts) != dim + 1:
            raise DataFormatError(
                f"{path}:{ln}: expected {dim} values for '{token}', "
                f"got {len(parts) - 1}")
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{ln}: '{token}': {exc}") from None
        if not np.isfinite(vec).all():
            raise DataFormatError(f"{path}:{ln}: non-finite value for '{token}'")
        matrix[idx] = vec
    return len(seen)


def generate_synthetic(spec: SynthSpec) -> tuple[RawCorpus, list[tuple[str, str, str, int]]]:
    """Deterministic K-task corpus with provenance for every vocabulary token.

    Task k draws every value from one ``_RawDraws((spec.seed, k))`` stream,
    so the corpus is a function of the spec, seed included, through PCG64's
    raw outputs alone.
    """
    (task_names, polarity, shared_pool, own_only, contam_pool,
     filler_pool, provenance) = _synth_vocab(spec)
    corpus: RawCorpus = {}

    def biased_cum(pool_len: int, task: int) -> list[float]:
        """Cumulative draw weights, a list: ``bisect`` on it beats a per-token ``np.searchsorted``."""
        if pool_len == 0:
            return []
        idx = np.arange(pool_len)
        weights = np.where(idx % spec.tasks == task, 1.0 + spec.domain_bias, 1.0)
        return np.cumsum(weights / weights.sum()).tolist()

    for k, name in enumerate(task_names):
        rng = _RawDraws((spec.seed, k))
        shared_cum = biased_cum(len(shared_pool), k)
        filler_cum = biased_cum(len(filler_pool), k)
        make = lambda: _synth_sentence(rng, spec, polarity[name], shared_pool,
                                       shared_cum, own_only[name],
                                       contam_pool[name], filler_pool, filler_cum)
        labeled = [make() for _ in range(spec.sentences_per_task)]
        unlabeled = [make()[0] for _ in range(spec.unlabeled_per_task)]
        train, dev, test = partition(labeled, seed=spec.seed)
        corpus[name] = RawTask(name=name, n_classes=2,
                               splits={"train": train, "dev": dev, "test": test},
                               unlabeled=unlabeled)
    return corpus, provenance
