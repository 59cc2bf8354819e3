"""Model assembly for the three sharing schemes.

``fs``  one shared LSTM, per-task heads over its final state.
``sp``  shared plus one private LSTM per task; heads read the
        concatenation (private, shared) of the two final states.
``asp`` ``sp`` plus a task discriminator fed the gradient-reversed final
        shared state, trained jointly through the reversal node.

Transfer models reuse a frozen shared layer: single-channel (head over
the frozen encoder alone) or bi-channel (frozen encoder next to a fresh
trainable one).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import zip_longest
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Node, Tape, Tensor
from .errors import ConfigError, ContractError, DataFormatError, InputError

SCHEMES = ("fs", "sp", "asp")
CONCAT_ORDER = "private,shared"
CHECKPOINT_MAGIC = b"ADVMTL01"
CHECKPOINT_VERSION = 1


def _is_int(value) -> bool:
    """A plain int: a float such as ``2.0`` or a bool compares equal to one but is no size."""
    return type(value) is int


@dataclass(frozen=True)
class ModelConfig:
    scheme: str
    task_names: tuple[str, ...]
    classes: tuple[int, ...]
    hidden_size: int
    embed_size: int
    vocab_size: int

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme '{self.scheme}', want one of {SCHEMES}")
        if len(self.task_names) != len(self.classes):
            raise ConfigError("task_names and classes must have equal length")
        if len(self.task_names) < 1:
            raise ConfigError("at least one task required")
        if self.scheme == "asp" and len(self.task_names) < 2:
            raise ConfigError("adversarial scheme needs at least 2 tasks")
        if (not all(isinstance(n, str) and n for n in self.task_names)
                or len(set(self.task_names)) != len(self.task_names)):
            raise ConfigError(f"task_names must be unique, non-empty strings, "
                              f"got {self.task_names!r}")
        sizes = {"hidden_size": self.hidden_size, "embed_size": self.embed_size,
                 "vocab_size": self.vocab_size,
                 **{f"classes[{k}]": c for k, c in enumerate(self.classes)}}
        for name, value in sizes.items():
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if any(c < 2 for c in self.classes):
            raise ConfigError("each task needs at least 2 classes")
        if min(self.hidden_size, self.embed_size) < 1 or self.vocab_size < 2:
            raise ConfigError("hidden/embed sizes must be >= 1, vocab >= 2")

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def has_private(self) -> bool:
        return self.scheme != "fs"

    @property
    def has_discriminator(self) -> bool:
        return self.scheme == "asp"

    @property
    def head_input_size(self) -> int:
        return 2 * self.hidden_size if self.has_private else self.hidden_size


def _tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of a ``config`` model, in checkpoint order.

    The one declaration of the parameter layout: initialization, the
    checkpoint loader and every reader of a tensor take its name from here.
    """
    d, e = config.hidden_size, config.embed_size
    lstm = ((4 * d, d + e), (4 * d,))
    shapes = {"embeddings": (config.vocab_size, e), "shared.W": lstm[0], "shared.b": lstm[1]}
    if config.has_private:
        for k in range(config.n_tasks):
            shapes[f"private.{k}.W"], shapes[f"private.{k}.b"] = lstm
    for k, c in enumerate(config.classes):
        shapes[f"head.{k}.W"], shapes[f"head.{k}.b"] = (c, config.head_input_size), (c,)
    if config.has_discriminator:
        shapes["disc.W"], shapes["disc.b"] = (config.n_tasks, d), (config.n_tasks,)
    return shapes


def _layer(tensors: Mapping, name: str) -> tuple:
    """The ``W`` and ``b`` of layer ``name`` (``"shared"``, ``"private.0"``, ...) in ``tensors``."""
    return tensors[f"{name}.W"], tensors[f"{name}.b"]


@dataclass
class ModelParams:
    """All learnable tensors of one model, plus the set of frozen names.

    ``tensors`` maps each checkpoint name (``embeddings``, ``shared.W``,
    ``private.3.b``, ``head.0.W``, ``disc.b``, ...) to its array, in the
    order of :func:`_tensor_shapes`. ``frozen`` names the tensors that
    training holds fixed; a fixed embedding table is ``"embeddings"`` in it.
    """

    tensors: dict[str, Tensor]
    frozen: frozenset[str] = frozenset()

    def named_tensors(self) -> dict[str, Tensor]:
        """Stable name -> array of every parameter (checkpoint order)."""
        return self.tensors

    def bind(self, tape: Tape) -> dict[str, Node]:
        """Register all tensors on a tape; frozen ones as constants."""
        return {name: (tape.constant(arr, validate=False) if name in self.frozen
                       else tape.leaf(arr, validate=False))
                for name, arr in self.tensors.items()}

    def copy(self) -> "ModelParams":
        return ModelParams({name: arr.copy() for name, arr in self.tensors.items()},
                           self.frozen)


def init_model(config: ModelConfig, seed: int,
               freeze_embeddings: bool = False) -> ModelParams:
    """Fresh parameters, drawn uniform on [-0.1, 0.1] from ``seed``.

    The tensors are drawn one after another in checkpoint order, so
    identical seeds give identical models. Pretrained vectors are written
    into ``tensors["embeddings"]`` afterwards; ``freeze_embeddings`` keeps
    that table fixed in training.
    """
    rng = np.random.default_rng(seed)
    tensors = {name: nn.uniform_init(rng, shape)
               for name, shape in _tensor_shapes(config).items()}
    return ModelParams(tensors, frozenset({"embeddings"} if freeze_embeddings else ()))


@dataclass
class ForwardResult:
    """Tape nodes of a forward pass, and the batch's packed layout.

    ``states`` is the :func:`nn.lstm_encode` node of the ``layers`` folded
    layers, packed rows laid out by ``packing`` (one sentence's are in
    token order): ``[N, d]`` shared states, or ``[N, 2d]``, the pair
    ``[H | S]`` in ``CONCAT_ORDER``. ``features`` is its row at each
    sentence's last token, the head's input; the probabilities have one
    row per sentence too.

    ``S`` and ``H`` are the shared and private halves of ``states``, and
    ``s_T`` and ``h_T`` those of ``features``. A half of a pair is a column
    slice that is recorded when it is first read, so a graph holds only the
    halves its losses use. Fields that the scheme or the call does not
    produce are None.
    """

    packing: nn.Packing
    states: Node
    features: Node
    layers: int
    class_probs: Node | None = None
    disc_probs: Node | None = None

    def _half(self, node: Node, shared: bool) -> Node | None:
        if self.layers == 1:
            return node if shared else None
        d = node.shape[-1] // 2
        return ad.columns(node, d, 2 * d) if shared else ad.columns(node, 0, d)

    @cached_property
    def S(self) -> Node:
        return self._half(self.states, True)

    @cached_property
    def H(self) -> Node | None:
        return self._half(self.states, False)

    @cached_property
    def s_T(self) -> Node:
        return self._half(self.features, True)

    @cached_property
    def h_T(self) -> Node | None:
        return self._half(self.features, False)


def _packed_batch(tensors: Mapping, config: ModelConfig, sentences: Sequence[Sequence[int]],
                  task: int | None) -> tuple[nn.Packing, Node | Tensor, tuple]:
    """A batch's packing, its embedding rows in packed order and the layers it folds through.

    The layers are the task's private one and the shared one, in
    ``CONCAT_ORDER``, or the shared one alone for ``fs`` and for unlabeled
    data (no task). ``tensors`` are a model's arrays or its nodes on a
    tape; there the rows are one ``take_rows`` of the ids in token order,
    whose gradient sums each id's rows in token order, then one
    ``autodiff.row`` into packed order.
    """
    if task is not None and not 0 <= task < config.n_tasks:
        raise InputError(f"unknown task index {task} for {config.n_tasks} tasks")
    if not sentences:
        raise InputError("empty batch")
    packing = nn.pack(np.array([len(s) for s in sentences], dtype=np.intp))
    ids = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.intp,
                      count=packing.offs[-1])
    table = tensors["embeddings"]
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise InputError(f"token id out of range for vocabulary of {table.shape[0]}")
    if isinstance(table, Node):
        rows = ad.row(ad.take_rows(table, ids), packing.rows)
    else:
        rows = table[ids[packing.rows]]
    private = task is not None and config.has_private
    names = (f"private.{task}", "shared") if private else ("shared",)
    return packing, rows, tuple(_layer(tensors, name) for name in names)


def forward_batch(bound: Mapping[str, Node], config: ModelConfig,
                  sentences: Sequence[Sequence[int]], task: int | None,
                  adv_weight: float = 1.0) -> ForwardResult:
    """Run a batch of sentences through the scheme's encoders, as one graph.

    The graph is recorded on the tape of the ``bound`` leaves (see
    :meth:`ModelParams.bind`). With a task, that task's private encoder
    and head run too; with none (unlabeled data) only the shared encoder
    does. For ``asp`` the discriminator reads the final shared states
    through a gradient reversal of scale ``adv_weight``.
    """
    packing, xs, layers = _packed_batch(bound, config, sentences, task)
    states = nn.lstm_encode(xs, layers, packing)
    out = ForwardResult(packing, states, ad.row(states, packing.last), len(layers))
    if task is not None:
        out.class_probs = nn.softmax_classify(out.features, *_layer(bound, f"head.{task}"))
    if config.has_discriminator:
        rev = ad.gradient_reversal(out.s_T, adv_weight)
        out.disc_probs = discriminate(rev, *_layer(bound, "disc"))
    return out


def forward(tape: Tape, bound: Mapping[str, Node], config: ModelConfig,
            token_ids: Sequence[int], task: int, rev_spec: float = 1.0,
            want_disc: bool = True) -> ForwardResult:
    """Run one sentence through the scheme's encoders and its task head.

    This is :func:`forward_batch` on a batch of one, with the batch axis
    taken off the per-sentence fields; ``states`` are already the
    sentence's ``[T, d]`` (or ``[T, 2d]``) states. ``tape`` is the one
    ``bound`` was recorded on; the nodes carry it, so it is not read.
    ``rev_spec`` is the reversal's scale; ``want_disc=False`` leaves ``disc_probs`` None.
    """
    res = forward_batch(bound, config, [token_ids], task, rev_spec)
    if not want_disc:
        res.disc_probs = None
    return replace(res, **{k: ad.row(getattr(res, k), 0)
                           for k in ("features", "class_probs", "disc_probs")
                           if getattr(res, k) is not None})


def discriminate(s: Node, W: Node, b: Node) -> Node:
    """Task probabilities softmax(W s + b) of a shared representation, or of each row of ``s``."""
    return nn.softmax_classify(s, W, b)


def build_transfer(source: ModelParams, mode: str, task_name: str,
                   n_classes: int, vocab_size: int, seed: int) -> tuple[ModelParams, ModelConfig]:
    """Target-task model around a frozen copy of ``source``'s trained shared layer.

    ``sc`` classifies on the frozen encoder's final state alone; ``bc``
    adds a fresh trainable LSTM and classifies on the concatenated pair.
    The hidden and embedding sizes are those of ``source``'s ``shared.W``.
    Only the copied ``shared.W`` and ``shared.b`` are frozen; everything
    else, the embedding table included, is freshly initialized from ``seed``.
    """
    if mode not in ("sc", "bc"):
        raise ConfigError(f"transfer mode must be 'sc' or 'bc', got '{mode}'")
    W, b = _layer(source.tensors, "shared")
    d = W.shape[0] // 4
    config = ModelConfig(scheme="fs" if mode == "sc" else "sp",
                         task_names=(task_name,), classes=(n_classes,),
                         hidden_size=d, embed_size=W.shape[1] - d, vocab_size=vocab_size)
    params = init_model(config, seed)
    params.tensors.update({"shared.W": W.copy(), "shared.b": b.copy()})
    params.frozen = frozenset({"shared.W", "shared.b"})
    return params, config


@dataclass
class Encoding:
    """Tape-free forward values of a batch of sentences, one row per sentence.

    ``s_T`` and ``h_T`` are the final shared and private states, and the
    probabilities are those of the task head and the discriminator, as in
    :class:`ForwardResult`. Fields that the scheme or the call does not
    produce are None. Per-timestep states are not kept: see
    :func:`dump_activations` for those of a batch.
    """

    s_T: Tensor
    h_T: Tensor | None = None
    class_probs: Tensor | None = None
    disc_probs: Tensor | None = None


def _classify(tensors: Mapping[str, Tensor], task: int, features: Tensor) -> Tensor:
    return ad._softmax(ad._affine(features, *_layer(tensors, f"head.{task}")))


def encode(params: ModelParams, config: ModelConfig,
           sentences: Sequence[Sequence[int]], task: int | None = None) -> Encoding:
    """Inference for a batch of sentences: the values of :func:`forward_batch`, with no tape.

    With no task only the shared encoder runs. With a task, that task's
    private encoder and head run too, and the discriminator when the
    scheme has one. The embedding rows are gathered once, in packed order,
    and the encoders fold over them keeping only their running states
    (:func:`nn.lstm_final_states`).
    """
    tensors = params.tensors
    packing, X, layers = _packed_batch(tensors, config, sentences, task)
    finals = nn.lstm_final_states(X, layers, packing)
    out = Encoding(s_T=finals[-1], h_T=finals[0] if len(finals) == 2 else None)
    if task is not None:
        features = finals[0] if len(finals) == 1 else np.concatenate(finals, axis=1)
        out.class_probs = _classify(tensors, task, features)
        if config.has_discriminator:
            out.disc_probs = ad._softmax(ad._affine(out.s_T, *_layer(tensors, "disc")))
    return out


def dump_activations(params: ModelParams, config: ModelConfig,
                     sentences: Sequence[Sequence[int]], task: int) -> tuple[Tensor, Tensor]:
    """Per-token encoder states and the head's running prediction, for a batch of sentences.

    Returns ``states`` ``[N, k·d]`` and ``class_probs`` ``[N, C]``, one row
    per token of the concatenated sentences, in order. ``states`` holds the
    k layers' states in ``CONCAT_ORDER`` (private, shared), as
    :func:`nn.lstm_states` gives them; ``class_probs`` is the distribution
    the task head assigns to the prefix ending at that token, so a
    sentence's last row matches ``forward``. The batch folds as one, so a
    value may differ in the last bit from that of the sentence alone.
    """
    tensors = params.tensors
    packing, X, layers = _packed_batch(tensors, config, sentences, task)
    packed = nn.lstm_states(X, layers, packing)
    states = np.empty_like(packed)  # in token order
    states[packing.rows] = packed
    return states, _classify(tensors, task, states)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

# The header's JSON form, one text per value: ``1`` is not ``true``, ``6`` is not ``6.0``.
_canonical = partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _manifest(config: ModelConfig, frozen: frozenset[str], extra: dict | None) -> dict:
    """The checkpoint header of a ``config`` model: the one declaration of its fields."""
    return {
        "format_version": CHECKPOINT_VERSION,
        "scheme": config.scheme,
        "task_names": list(config.task_names),
        "classes": list(config.classes),
        "hidden_size": config.hidden_size,
        "embed_size": config.embed_size,
        "vocab_size": config.vocab_size,
        "gate_block_order": nn.GATE_BLOCK_ORDER,
        "input_order": nn.INPUT_ORDER,
        "concat_order": CONCAT_ORDER,
        "frozen": sorted(frozen),
        "embeddings_trainable": "embeddings" not in frozen,
        "tensors": [{"name": n, "shape": list(s)} for n, s in _tensor_shapes(config).items()],
        "extra": extra or {},
    }


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    extra: dict | None = None) -> None:
    """Write a byte-stable container: magic, JSON header, raw f64 blobs.

    Tensors or frozen names off the :func:`_tensor_shapes` layout raise
    :class:`ContractError` before the file is opened.
    """
    shapes = _tensor_shapes(config)
    if ([(n, a.shape) for n, a in params.tensors.items()] != list(shapes.items())
            or not params.frozen <= shapes.keys()):
        raise ContractError("the tensors or frozen names do not match the model's layout")
    header = _canonical(_manifest(config, params.frozen, extra)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for arr in params.tensors.values():  # no bytes copy of any tensor
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B"))


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig, dict]:
    """Read a container written by :func:`save_checkpoint`.

    The header must be the one :func:`save_checkpoint` writes for the model
    it describes, field for field and type for type. Any other header, a
    truncated or non-finite tensor, and bytes after the last tensor raise
    :class:`DataFormatError` naming the first field or tensor at fault.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a checkpoint file")
        header_len = int.from_bytes(fh.read(8), "little")
        size = os.fstat(fh.fileno()).st_size
        if header_len > size - fh.tell():
            raise DataFormatError(
                f"{path}: header length {header_len} runs past the end of the file")
        try:
            manifest = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise DataFormatError(f"{path}: unreadable checkpoint header: {exc}") from None
        if not isinstance(manifest, dict):
            raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
        if manifest.get("format_version") != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported checkpoint version {manifest.get('format_version')}")
        for key in ("task_names", "classes"):  # before tuple() reads one as an iterable
            if key in manifest and not isinstance(manifest[key], list):
                raise DataFormatError(f"{path}: header field '{key}': file has "
                                      f"{_canonical(manifest[key])}, not a list")
        try:
            config = ModelConfig(scheme=manifest["scheme"],
                                 task_names=tuple(manifest["task_names"]),
                                 classes=tuple(manifest["classes"]),
                                 hidden_size=manifest["hidden_size"],
                                 embed_size=manifest["embed_size"],
                                 vocab_size=manifest["vocab_size"])
        except KeyError as exc:
            raise DataFormatError(f"{path}: checkpoint has no {exc.args[0]!r}") from None
        except (ConfigError, TypeError) as exc:
            raise DataFormatError(f"{path}: bad model settings: {exc}") from None
        shapes = _tensor_shapes(config)
        frozen, extra = manifest.get("frozen"), manifest.get("extra")
        if not (isinstance(frozen, list)
                and all(isinstance(n, str) and n in shapes for n in frozen)):
            raise DataFormatError(f"{path}: 'frozen' must be a list of the model's tensor names")
        if not isinstance(extra, dict):
            raise DataFormatError(f"{path}: 'extra' must be a JSON object")
        want = _manifest(config, frozenset(frozen), extra)
        for key in sorted(manifest.keys() | want.keys()):
            got, exp = (_canonical(h[key]) if key in h else "nothing" for h in (manifest, want))
            if got == exp:
                continue
            if key == "tensors" and isinstance(manifest.get(key), list):  # name the entry
                pairs = zip_longest(map(_canonical, manifest[key]),
                                    map(_canonical, want[key]), fillvalue="nothing")
                key, (got, exp) = next((f"tensors[{i}]", p) for i, p in enumerate(pairs)
                                       if p[0] != p[1])
            raise DataFormatError(
                f"{path}: header field '{key}': file has {got}, this library writes {exp}")
        arrays = {}
        for name, shape in shapes.items():  # one tensor at a time: no second copy of any
            # sizes are checked against the file before any buffer is allocated
            if 8 * math.prod(shape) > size - fh.tell():
                raise DataFormatError(f"{path}: truncated tensor '{name}'")
            arr = np.empty(shape, dtype="<f8")
            fh.readinto(memoryview(arr).cast("B"))
            if not np.isfinite(arr).all():
                raise DataFormatError(f"{path}: non-finite values in tensor '{name}'")
            arrays[name] = arr
        if fh.read(1):
            raise DataFormatError(f"{path}: unexpected bytes after the last tensor")
    return ModelParams(arrays, frozenset(frozen)), config, extra
