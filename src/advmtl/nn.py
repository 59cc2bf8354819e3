"""Neural layers: embedding lookup, LSTM encoder, softmax classifier.

The LSTM is the peephole-free variant: one affine map produces all four
gate pre-activations, stacked in the fixed row-block order
(candidate, output, input, forget):

    [cbar; o; i; f] = [tanh; sigm; sigm; sigm](W @ [x; h_prev] + b)
    c = cbar * i + c_prev * f
    h = o * tanh(c)

The block order and the [x; h_prev] column order are part of the
checkpoint format and must not change.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape, Tensor
from .errors import DataFormatError, InputError, ShapeError

INIT_RANGE = 0.1
GATE_BLOCK_ORDER = "cbar,o,i,f"
INPUT_ORDER = "x,h"


def uniform_init(rng: np.random.Generator, shape) -> Tensor:
    """Draw one parameter tensor i.i.d. uniform on [-INIT_RANGE, INIT_RANGE]."""
    return rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)


@dataclass
class LstmParams:
    """Weights of one LSTM layer: W is [4d, d+e], b is [4d]."""

    W: Tensor
    b: Tensor

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.ndim != 1:
            raise ShapeError(
                f"lstm params: want matrix W and vector b, got {self.W.shape}, {self.b.shape}")
        if self.W.shape[0] != self.b.shape[0] or self.W.shape[0] % 4 != 0:
            raise ShapeError(
                f"lstm params: W rows {self.W.shape[0]} must equal len(b) "
                f"{self.b.shape[0]} and be divisible by 4")
        if self.W.shape[1] <= self.W.shape[0] // 4:
            raise ShapeError(
                f"lstm params: W of shape {self.W.shape} leaves no input columns")

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.W.shape[1] - self.hidden_size


def init_lstm(rng: np.random.Generator, hidden: int, embed: int) -> LstmParams:
    return LstmParams(W=uniform_init(rng, (4 * hidden, hidden + embed)),
                      b=uniform_init(rng, 4 * hidden))


def lstm_states(X: Tensor, W: Tensor, b: Tensor, lengths=None,
                h0: Tensor | None = None, c0: Tensor | None = None) -> Tensor:
    """Hidden states ``[B, T, d]`` of the LSTM folded over each sentence of ``X``.

    ``X`` is ``[B, T, e]``; sentence ``k`` is its first ``lengths[k]`` rows
    (default: all ``T``). Past its length a sentence's state is frozen: its
    output rows are zero and its final state, ``H[k, lengths[k] - 1]``, is
    the state at its last real token. Initial states ``[B, d]`` default to
    zeros. :func:`lstm_encode` records this fold as one tape node.
    """
    return _LstmFold(X, W, b, lengths, h0, c0).outputs()


class _LstmFold:
    """The forward values of one LSTM fold, kept for its backward rule.

    The batch is folded sorted by length, longest first and in time-major
    ``[T, B, ...]`` arrays, so the sentences still running at step ``t`` are
    the first ``active[t]`` rows: each step computes only those, and the
    rest stay as they are. Rows a step does not compute are zero in every
    stored array and in the gate gradients, so they contribute nothing to
    any product and the backward rule's whole-array factors stay finite.
    """

    def __init__(self, X, W, b, lengths, h0, c0):
        if X.ndim != 3:
            raise ShapeError(f"lstm_encode: expected [B, T, e] inputs, got {X.shape}")
        B, T, e = X.shape
        if B < 1 or T < 1:
            raise InputError("lstm_encode: empty sequence")
        d = b.shape[0] // 4
        if e != W.shape[1] - d:
            raise ShapeError(f"lstm_encode: input width {e}, expected {W.shape[1] - d}")
        lengths = np.full(B, T) if lengths is None else np.asarray(lengths, dtype=np.intp)
        if lengths.shape != (B,) or lengths.max() > T:
            raise ShapeError(f"lstm_encode: lengths {lengths} for inputs of shape {X.shape}")
        if lengths.min() < 1:
            raise InputError("lstm_encode: empty sequence")
        h0 = np.zeros((B, d)) if h0 is None else h0
        c0 = np.zeros((B, d)) if c0 is None else c0
        if h0.shape != (B, d) or c0.shape != (B, d):
            raise ShapeError(
                f"lstm_encode: initial state shapes {h0.shape}/{c0.shape}, expected {(B, d)}")

        self.lengths = lengths
        self.order = np.argsort(-lengths, kind="stable")
        self.unsort = np.argsort(self.order)
        self.active = [int(n) for n in np.count_nonzero(lengths[:, None] > np.arange(T), axis=0)]
        self.d, self.e, self.W = d, e, W
        self.h0, self.c0 = h0[self.order], c0[self.order]
        # time-major, sorted: the x half of every step's [x; h_prev] input
        self.X = np.ascontiguousarray(X[self.order].transpose(1, 0, 2))
        pre_x = self.X.reshape(T * B, e) @ W[:, :e].T
        pre_x += b
        pre_x = pre_x.reshape(T, B, 4 * d)
        W_hT = W[:, e:].T
        self.H = np.zeros((T, B, d))
        self.C = np.zeros((T, B, d))
        self.cbar = np.zeros((T, B, d))
        self.gates = np.zeros((T, B, 3 * d))  # o, i, f
        self.tanh_C = np.zeros((T, B, d))
        h_prev, c_prev = self.h0, self.c0
        for t, n in enumerate(self.active):
            pre = pre_x[t, :n] + h_prev[:n] @ W_hT
            cbar = np.tanh(pre[:, :d], out=self.cbar[t, :n])
            gates = self.gates[t, :n]
            gates[...] = ad._stable_sigmoid(pre[:, d:])
            o, i, f = gates[:, :d], gates[:, d:2 * d], gates[:, 2 * d:]
            c = np.multiply(cbar, i, out=self.C[t, :n])
            c += c_prev[:n] * f
            tc = np.tanh(c, out=self.tanh_C[t, :n])
            np.multiply(o, tc, out=self.H[t, :n])
            h_prev, c_prev = self.H[t], self.C[t]

    def outputs(self) -> Tensor:
        """``[B, T, d]`` hidden states in the caller's sentence order."""
        return self.H.transpose(1, 0, 2)[self.unsort]

    def backward(self, g: Tensor) -> tuple:
        """Gradients of (inputs, W, b, h0, c0) from the gradient of :meth:`outputs`."""
        d, e, W = self.d, self.e, self.W
        T, B = self.H.shape[:2]
        g = g[self.order].transpose(1, 0, 2)
        zs = np.empty((T, B, e + d))  # the [x; h_prev] input of every step
        zs[:, :, :e] = self.X
        zs[0, :, e:] = self.h0
        zs[1:, :, e:] = self.H[:-1]
        o, i, f = (self.gates[:, :, k * d:(k + 1) * d] for k in range(3))
        cbar, tc = self.cbar, self.tanh_C
        c_prev = np.concatenate([self.c0[None], self.C[:-1]])
        # each step's gate-gradient factors in block order cbar, o, i, f: the
        # o block scales the step's dh, the other three its dc
        local = np.stack([i * (1.0 - cbar * cbar), tc * o * (1.0 - o),
                          cbar * i * (1.0 - i), c_prev * f * (1.0 - f)], axis=2)
        dc_dh = o * (1.0 - tc * tc)
        ga_all = np.zeros((T, B, 4, d))
        dX = np.zeros((T, B, e))
        dh = np.zeros((B, d))
        dc = np.zeros((B, d))
        for t in range(T - 1, -1, -1):
            n = self.active[t]
            dh_t = dh[:n] + g[t, :n]
            gc = dc[:n] + dh_t * dc_dh[t, :n]
            ga = np.multiply(local[t, :n], gc[:, None], out=ga_all[t, :n])
            np.multiply(local[t, :n, 1], dh_t, out=ga[:, 1])
            gz = ga.reshape(n, 4 * d) @ W
            dX[t, :n] = gz[:, :e]
            dh[:n] = gz[:, e:]
            np.multiply(gc, f[t, :n], out=dc[:n])
        ga_rows = ga_all.reshape(T * B, 4 * d)
        dW = ga_rows.T @ zs.reshape(T * B, e + d)
        db = ga_rows.sum(axis=0)
        u = self.unsort
        return dX.transpose(1, 0, 2)[u], dW, db, dh[u], dc[u]


def lstm_encode(xs: Node, W: Node, b: Node, lengths=None,
                h0: Node | None = None, c0: Node | None = None) -> tuple[Node, Node]:
    """Fold the LSTM over each sentence of ``xs`` ([B, T, e]); returns (h_T [B, d], all_h [B, T, d]).

    Sentence ``k`` is its first ``lengths[k]`` rows (default: all ``T``);
    ``h_T[k]`` is its state at its last real token, and ``all_h`` is zero
    past each length, as in :func:`lstm_states`. The whole batch is one tape
    node whose backward rule runs one batched BPTT loop and accumulates the
    weight gradient as a single matrix product over all B*T steps; padded
    steps contribute exactly zero to every gradient. Initial states
    ``[B, d]`` default to zeros. Its gradients are finite-difference checked
    and agree with chaining single LSTM steps.
    """
    fold = _LstmFold(xs.value, W.value, b.value, lengths,
                     None if h0 is None else h0.value, None if c0 is None else c0.value)
    parents = (xs, W, b) + tuple(n for n in (h0, c0) if n is not None)
    grads = (0, 1, 2) + tuple(k for k, n in ((3, h0), (4, c0)) if n is not None)

    def vjp(g):
        out = fold.backward(g)
        return tuple(out[k] for k in grads)

    all_h = xs.tape.record(fold.outputs(), parents, vjp)
    return ad.take_along(all_h, fold.lengths - 1), all_h


@dataclass
class SoftmaxHead:
    """Affine-softmax output layer: W is [C, d_in], b is [C]."""

    W: Tensor
    b: Tensor

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ShapeError(
                f"softmax head: incompatible W {self.W.shape} and b {self.b.shape}")

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]


def init_head(rng: np.random.Generator, n_classes: int, d_in: int) -> SoftmaxHead:
    return SoftmaxHead(W=uniform_init(rng, (n_classes, d_in)),
                       b=uniform_init(rng, n_classes))


def softmax_classify(h: Node, W: Node, b: Node) -> Node:
    """Class probabilities softmax(W h + b) of a feature vector, or of each row of ``h``."""
    return ad.softmax(ad.affine(h, W, b))


@dataclass
class EmbeddingTable:
    """Token vectors, one row per vocabulary id."""

    matrix: Tensor
    trainable: bool = True

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ShapeError(f"embedding table must be 2-D, got {self.matrix.shape}")

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def init_embeddings(rng: np.random.Generator, vocab_size: int, dim: int) -> EmbeddingTable:
    return EmbeddingTable(matrix=uniform_init(rng, (vocab_size, dim)))


def batch_token_ids(sentences, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids of a batch of sentences, concatenated, and each sentence's length.

    An empty batch, an empty sentence and an out-of-range id raise.
    """
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    if len(lengths) == 0 or lengths.min() == 0:
        raise InputError("embed_batch: empty sentence")
    ids = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.intp,
                      count=int(lengths.sum()))
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise InputError(
            f"embed_batch: token id out of range for vocabulary of {vocab_size}")
    return ids, lengths


def embed_batch(table_node: Node, sentences) -> tuple[Node, np.ndarray]:
    """Look up a batch of sentences; returns the ``[B, T, e]`` node and the lengths.

    Only the real tokens are looked up, as one :func:`~advmtl.autodiff.take_rows`;
    the padding past each sentence's length is zero and gets no gradient.
    """
    ids, lengths = batch_token_ids(sentences, table_node.value.shape[0])
    return ad.pad_runs(ad.take_rows(table_node, ids), lengths), lengths


def load_embeddings_text(path, token_to_id: dict[str, int], matrix: Tensor) -> int:
    """Overwrite rows of ``matrix`` with vectors from a text embedding file.

    Format: one token per line followed by ``dim`` whitespace-separated
    floats. Lines whose token is not in ``token_to_id`` are skipped.
    Returns the number of rows loaded.
    """
    dim = matrix.shape[1]
    loaded = 0
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            token = parts[0]
            idx = token_to_id.get(token)
            if idx is None:
                continue
            if len(parts) != dim + 1:
                raise DataFormatError(
                    f"{path}:{ln}: expected {dim} values for '{token}', "
                    f"got {len(parts) - 1}")
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{ln}: {exc}") from None
            matrix[idx] = vec
            loaded += 1
    return loaded
