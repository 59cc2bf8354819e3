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

from dataclasses import dataclass, field

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


def lstm_states(X: Tensor, W: Tensor, b: Tensor,
                h0: Tensor | None = None, c0: Tensor | None = None) -> tuple:
    """Fold the LSTM over the rows of ``X`` ([T, e]) in plain numpy.

    Returns ``(H, C, cbar, gates, tanh_C)`` with one row per timestep: the
    hidden and cell states, the candidate block, the ``o, i, f`` gates and
    ``tanh`` of the cell. Initial states default to zeros. Inference uses
    ``H`` alone; :func:`lstm_encode` keeps the rest for its backward rule.
    """
    if X.ndim != 2:
        raise ShapeError(f"lstm_encode: expected [T, e] inputs, got {X.shape}")
    T = X.shape[0]
    if T < 1:
        raise InputError("lstm_encode: empty sequence")
    d = b.shape[0] // 4
    e = W.shape[1] - d
    if X.shape[1] != e:
        raise ShapeError(f"lstm_encode: input width {X.shape[1]}, expected {e}")
    h = np.zeros(d) if h0 is None else h0
    c = np.zeros(d) if c0 is None else c0
    if h.shape != (d,) or c.shape != (d,):
        raise ShapeError(
            f"lstm_encode: initial state shapes {h.shape}/{c.shape}, expected ({d},)")

    W_h = W[:, e:]
    pre_x = X @ W[:, :e].T + b  # x-side of all gate pre-activations
    cbar = np.empty((T, d))
    gates = np.empty((T, 3 * d))  # o, i, f per row
    cs = np.empty((T, d))
    tcs = np.empty((T, d))
    all_h = np.empty((T, d))
    for t in range(T):
        pre = pre_x[t] + W_h @ h
        cbar[t] = np.tanh(pre[:d])
        gates[t] = ad._stable_sigmoid(pre[d:])
        o, i, f = gates[t, :d], gates[t, d:2 * d], gates[t, 2 * d:]
        c = cbar[t] * i + c * f
        cs[t] = c
        tcs[t] = np.tanh(c)
        all_h[t] = o * tcs[t]
        h = all_h[t]
    return all_h, cs, cbar, gates, tcs


def lstm_encode(xs: Node, W: Node, b: Node,
                h0: Node | None = None, c0: Node | None = None) -> tuple[Node, Node]:
    """Fold the LSTM over the rows of ``xs`` ([T, e]); returns (h_T, all_h [T, d]).

    Initial states default to zeros. The forward values come from
    :func:`lstm_states`, and the whole unrolled sequence is one fused tape
    node whose backward rule runs the full BPTT loop, accumulating the
    weight gradient as a single matrix product. Its gradients are
    finite-difference checked and agree with chaining single LSTM steps.
    """
    tape = xs.tape
    d = b.value.shape[0] // 4
    h0 = h0 if h0 is not None else tape.constant(np.zeros(d))
    c0 = c0 if c0 is not None else tape.constant(np.zeros(d))
    Wv = W.value
    all_h, cs, cbar, gates, tcs = lstm_states(xs.value, Wv, b.value, h0.value, c0.value)
    T, e = xs.value.shape

    def vjp(g):
        zs = np.empty((T, d + e))  # the [x; h_prev] input of every step
        zs[:, :e] = xs.value
        zs[0, e:] = h0.value
        zs[1:, e:] = all_h[:-1]
        c_prevs = np.empty((T, d))
        c_prevs[0] = c0.value
        c_prevs[1:] = cs[:-1]
        ga_all = np.empty((T, 4 * d))
        dxs = np.empty((T, e))
        dh = np.zeros(d)
        dc = np.zeros(d)
        for t in range(T - 1, -1, -1):
            dh = dh + g[t]
            o, i, f = gates[t, :d], gates[t, d:2 * d], gates[t, 2 * d:]
            tc = tcs[t]
            gc = dc + dh * o * (1.0 - tc * tc)
            ga = ga_all[t]
            ga[:d] = gc * i * (1.0 - cbar[t] * cbar[t])
            ga[d:2 * d] = dh * tc * o * (1.0 - o)
            ga[2 * d:3 * d] = gc * cbar[t] * i * (1.0 - i)
            ga[3 * d:] = gc * c_prevs[t] * f * (1.0 - f)
            gz = Wv.T @ ga
            dxs[t] = gz[:e]
            dh = gz[e:]
            dc = gc * f
        dW = ga_all.T @ zs
        db = ga_all.sum(axis=0)
        return (dxs, dW, db, dh, dc)

    all_h_node = tape.record(all_h, (xs, W, b, h0, c0), vjp)
    return ad.row(all_h_node, T - 1), all_h_node


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
    """Class probabilities softmax(W h + b); stabilized by max subtraction."""
    if h.value.shape != (W.value.shape[1],):
        raise ShapeError(
            f"softmax_classify: feature shape {h.value.shape} does not match "
            f"head input width {W.value.shape[1]}")
    return ad.softmax(ad.add(ad.matmul(W, h), b))


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


def check_token_ids(token_ids, vocab_size: int) -> list[int]:
    """The ids of one sentence as a list; empty or out-of-range ids raise."""
    ids = list(token_ids)
    if not ids:
        raise InputError("embed_sequence: empty sentence")
    if min(ids) < 0 or max(ids) >= vocab_size:
        raise InputError(
            f"embed_sequence: token id out of range for vocabulary of {vocab_size}")
    return ids


def embed_sequence(table_node: Node, token_ids) -> Node:
    """Look up token vectors; returns a [T, e] node."""
    return ad.take_rows(table_node, check_token_ids(token_ids, table_node.value.shape[0]))


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
