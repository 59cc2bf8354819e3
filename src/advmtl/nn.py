"""Neural layers: embedding lookup, LSTM encoder, softmax classifier.

The LSTM is the peephole-free variant: one affine map produces all four
gate pre-activations, stacked in the fixed row-block order
(candidate, output, input, forget):

    [cbar; o; i; f] = [tanh; sigm; sigm; sigm](W @ [x; h_prev] + b)
    c = cbar * i + c_prev * f
    h = o * tanh(c)

The block order and the [x; h_prev] column order are part of the
checkpoint format and must not change.

A model folds one LSTM over a batch, or two over the same inputs: a
task's private LSTM and the shared one, neither reading the other's
output. Each fold entry, :func:`lstm_encode` (a tape node),
:func:`lstm_states` (its value, untaped) and :func:`lstm_final_states`
(inference), takes a tuple of one or two ``(W, b)`` layers in the models'
concatenation order (private, shared).
Two layers run on two threads when :func:`_concurrent` allows it: the
calling thread folds the shared layer and one worker thread per process,
pinned to the last CPU this process may use, folds the private one. Each
fold is the same sequence of numpy calls on either thread, so the numbers
are bitwise those of the serial path, whichever is taken.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tensor
from .errors import InputError, ShapeError

INIT_RANGE = 0.1
GATE_BLOCK_ORDER = "cbar,o,i,f"
INPUT_ORDER = "x,h"


def uniform_init(rng: np.random.Generator, shape) -> Tensor:
    """Draw one parameter tensor i.i.d. uniform on [-INIT_RANGE, INIT_RANGE]."""
    return rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)


@dataclass(frozen=True)
class Packing:
    """The packed-sequence layout of a batch of sentences.

    The batch is sorted by length, longest first (``order[j]`` is the
    sentence at sorted position ``j``), then laid out time-major, keeping
    only the real tokens. Step ``t`` is the row slice ``offs[t] : offs[t] +
    active[t]``, and the sentences still running at step ``t`` are the
    first ``active[t]`` rows of step ``t - 1``. Packed row ``r`` holds token
    ``rows[r]`` of the concatenated sentences, in cell ``slots[r]`` of the flat
    (sentence, step) grid ``[B, T]``; ``last[k]`` is sentence ``k``'s final row.
    """

    order: np.ndarray
    active: list[int]
    offs: list[int]
    rows: np.ndarray
    slots: np.ndarray
    last: np.ndarray


def pack(lengths: np.ndarray) -> Packing:
    """The :class:`Packing` of concatenated sentences of ``lengths``; an empty one raises."""
    if lengths.min() < 1:
        raise InputError("pack: empty sentence")
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max())[:, None]
    running = lengths[order] > steps  # [step, sorted position]
    active = [int(n) for n in running.sum(axis=1)]
    offs = [0, *itertools.accumulate(active)]
    starts = np.cumsum(lengths) - lengths
    last = np.empty_like(order)
    last[order] = np.asarray(offs)[lengths[order] - 1] + np.arange(len(order))
    return Packing(order, active, offs, (starts[order] + steps)[running],
                   (order * len(steps) + steps)[running], last)


def _input_term(X: Tensor, W: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """Gate pre-activations ``X @ W_x^T + b`` of packed rows ``X``, and ``W_h^T``.

    The three sigmoid blocks of both are halved (their columns are scaled
    by 0.5, which is exact), since ``sigm(x) = 0.5 * tanh(x / 2) + 0.5``:
    each step then runs one ``tanh`` over all four gate blocks. ``W_h^T``
    is a contiguous ``[d, 4d]`` copy.
    """
    e = X.shape[1]
    d = b.shape[0] // 4
    Z = X @ W[:, :e].T
    Z += b
    Z[:, d:] *= 0.5
    W_hT = W[:, e:].T.copy()
    W_hT[:, d:] *= 0.5
    return Z, W_hT


def _lstm_step(z: Tensor, W_hT: Tensor, h_prev: Tensor | None, c_prev: Tensor | None,
               h: Tensor, c: Tensor, tanh_c: Tensor) -> None:
    """One LSTM step over the rows of ``z``, written into ``h``, ``c`` and ``tanh_c``.

    ``z`` holds the step's input term from :func:`_input_term` and is
    overwritten with the gate activations in block order. The previous
    state is ``(h_prev, c_prev)``, or zero when they are None. Both are read
    before the step writes ``h`` and ``c``, so the outputs may alias them.
    """
    d = h.shape[1]
    if h_prev is not None:
        z += h_prev @ W_hT
    np.tanh(z, out=z)
    gates = z[:, d:]
    gates *= 0.5
    gates += 0.5
    cbar, o, i, f = (z[:, k * d:(k + 1) * d] for k in range(4))
    if c_prev is None:
        np.multiply(cbar, i, out=c)
    else:
        np.add(cbar * i, c_prev * f, out=c)
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _final_fold(X: Tensor, W: Tensor, b: Tensor, packing: Packing) -> Tensor:
    """Final hidden state ``[B, d]`` of each sentence, in the caller's sentence order.

    ``X`` holds the sentences' token inputs as packed rows, laid out by
    ``packing``. The fold keeps only the running ``[B, d]`` state: a step
    writes the first ``active[t]`` rows, so a sentence's row is last
    written at its final token and then holds its final state. No
    per-token state is stored, so this is the inference fold; the values
    are those of :class:`_LstmFold` at each sentence's last token.
    """
    Z, W_hT = _input_term(X, W, b)
    d = W_hT.shape[0]
    B = packing.active[0]
    h, c, tanh_c = np.empty((B, d)), np.empty((B, d)), np.empty((B, d))
    for t, n in enumerate(packing.active):
        prev = (h[:n], c[:n]) if t else (None, None)
        _lstm_step(Z[packing.offs[t]:packing.offs[t + 1]], W_hT, *prev,
                   h[:n], c[:n], tanh_c[:n])
    return h[np.argsort(packing.order)]


class _LstmFold:
    """The forward values of one LSTM fold, kept for its backward rule.

    The fold runs on packed rows ``X`` laid out by ``packing``, and every
    array it stores has one row per packed row: no padded slot enters any
    product. It stores every step's gate activations, ``h`` (as ``H``),
    ``c`` and ``tanh(c)``, which the backward rule reads. ``H``, if given,
    is the ``[N, d]`` array (a view may do) that the states are written to.
    """

    def __init__(self, X, W, b, packing: Packing, H: Tensor | None = None):
        N, d = X.shape[0], b.shape[0] // 4
        self.d, self.W, self.X, self.active, self.offs = d, W, X, packing.active, packing.offs
        # gate pre-activations, then (in place, step by step) their activations
        self.Z, W_hT = _input_term(X, W, b)
        self.H = np.empty((N, d)) if H is None else H
        self.C, self.tanh_C = np.empty((N, d)), np.empty((N, d))
        for t, n in enumerate(self.active):
            r = slice(self.offs[t], self.offs[t + 1])
            p = slice(self.offs[t - 1], self.offs[t - 1] + n)
            prev = (self.H[p], self.C[p]) if t else (None, None)
            _lstm_step(self.Z[r], W_hT, *prev, self.H[r], self.C[r], self.tanh_C[r])

    def backward(self, g: Tensor) -> tuple:
        """Gradients of (inputs, W, b) from the gradient of ``H``, all in packed order."""
        d, W, active, offs = self.d, self.W, self.active, self.offs
        N, e = self.X.shape
        # the [x; h_prev] input and c_prev of every row, zero at step 0; a
        # row of step t > 0 follows its sentence's row by active[t - 1]
        n0, counts = active[0], np.array(active)
        prev = np.arange(n0, N) - np.repeat(counts[:-1], counts[1:])
        zs = np.empty((N, e + d))
        zs[:, :e] = self.X
        zs[:n0, e:] = 0.0
        zs[n0:, e:] = self.H[prev]
        c_prev = np.zeros((N, d))
        c_prev[n0:] = self.C[prev]
        cbar, o, i, f = (self.Z[:, k * d:(k + 1) * d] for k in range(4))
        tc = self.tanh_C
        # each row's gate-gradient factors in block order cbar, o, i, f: the
        # o block scales the step's dh, the other three its dc
        local = np.stack([i * (1.0 - cbar * cbar), tc * o * (1.0 - o),
                          cbar * i * (1.0 - i), c_prev * f * (1.0 - f)], axis=1)
        dc_dh = o * (1.0 - tc * tc)
        W_h = W[:, e:]  # a strided view: the product reads it in place
        ga_all = np.empty((N, 4, d))
        dh, dc = np.zeros((n0, d)), np.zeros((n0, d))
        for t in range(len(active) - 1, -1, -1):
            n, r = active[t], slice(offs[t], offs[t + 1])
            dh_t = dh[:n] + g[r]
            gc = dc[:n] + dh_t * dc_dh[r]
            ga = np.multiply(local[r], gc[:, None], out=ga_all[r])
            np.multiply(local[r, 1], dh_t, out=ga[:, 1])
            if t:  # only dh is recurrent: dX is one product after the loop
                np.matmul(ga.reshape(n, 4 * d), W_h, out=dh[:n])
                np.multiply(gc, f[r], out=dc[:n])
        ga_rows = ga_all.reshape(N, 4 * d)
        dW = ga_rows.T @ zs
        db = ga_rows.sum(axis=0)
        return ga_rows @ W[:, :e], dW, db


CONCURRENT_MIN_HIDDEN = 128  # below it a second thread costs more than it saves


def _concurrent(d: int) -> bool:
    """Whether a pair of width-``d`` folds runs on two threads.

    Three conditions, from timings on a 2-vCPU VM:
    - ``d >= CONCURRENT_MIN_HIDDEN``. Smaller folds make numpy calls too
      short to release the interpreter for long. A fold pair's forward and
      backward (batch 16, lengths 4-30, one BLAS thread) ran 0.88x as fast
      on two threads at d = 16, 1.03x at d = 64, 1.31x at d = 128 and
      1.60x at d = 200.
    - This process may run on at least 2 CPUs.
    - BLAS runs one thread: ``OPENBLAS_NUM_THREADS``, or if it is unset
      ``OMP_NUM_THREADS``, is ``1`` (the order in which OpenBLAS, which
      numpy's wheels bundle, reads them). BLAS's own threads use the same
      CPUs; with them a paper-scale step ran slower as a pair than alone.
    """
    env = os.environ
    return (d >= CONCURRENT_MIN_HIDDEN
            and env.get("OPENBLAS_NUM_THREADS", env.get("OMP_NUM_THREADS")) == "1"
            and allowed_cpus() >= 2)


def allowed_cpus() -> int:
    """The number of CPUs this process may run on (all of them where there is no affinity set)."""
    if hasattr(os, "sched_getaffinity"):  # Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _pin_to_last_cpu() -> None:
    # Pinned because it paid: on 2 vCPUs, 6 alternating pairs of 20 s perfbench paper-asp runs
    # gave 302-453 sentences/s unpinned against 439-481 pinned (medians 380 and 458).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # this thread only


def _drop_worker() -> None:
    """Forget the worker: a forked child has its executor but not its thread, nor the lock's holder."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # every platform that forks
    os.register_at_fork(after_in_child=_drop_worker)


def _each(calls, d: int) -> list:
    """``[call() for call in calls]`` for the one or two calls of width-``d`` folds' layers.

    The calls are in the layers' order (private, shared). The last, the
    shared layer's, runs first and on the calling thread. With two calls
    the other runs meanwhile on the worker thread when :func:`_concurrent`
    allows it, in a copy of the caller's context, so the caller's
    ``np.errstate`` holds there too. The worker is always waited for, and
    an error surfaces as it would serially: the shared call's first.
    """
    *rest, last = calls
    if not rest or not _concurrent(d):
        out = last()
        return [call() for call in rest] + [out]
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(1, "advmtl-fold", _pin_to_last_cpu)
        future = _worker.submit(contextvars.copy_context().run, rest[0])
    try:
        out = last()
    finally:
        wait((future,))  # it writes into arrays the caller owns
    return [future.result(), out]


def _width(X: Tensor, layers, packing: Packing) -> int:
    """The width ``d`` of one or two layers ``(W [4d, e + d], b [4d])`` over packed rows ``X``."""
    d = layers[-1][1].shape[0] // 4 if layers else 0
    want = ((4 * d, X.shape[-1] + d), (4 * d,))
    if (X.ndim != 2 or len(X) != packing.offs[-1] or not 1 <= len(layers) <= 2
            or any((W.shape, b.shape) != want for W, b in layers)):
        raise ShapeError(f"lstm: layers {[(W.shape, b.shape) for W, b in layers]} over "
                         f"inputs {X.shape} for {packing.offs[-1]} packed rows")
    return d


def _folds(X: Tensor, layers, packing: Packing) -> tuple[Tensor, list[_LstmFold]]:
    """The states ``[N, k*d]`` of ``k`` layers' folds over packed rows ``X``, and the folds."""
    d = _width(X, layers, packing)
    out = np.empty((len(X), len(layers) * d))
    folds = _each([partial(_LstmFold, X, W, b, packing, out[:, j * d:(j + 1) * d])
                   for j, (W, b) in enumerate(layers)], d)
    return out, folds


def lstm_encode(xs: Node, layers, packing: Packing) -> Node:
    """One or two LSTMs folded over the packed rows ``xs``, as one tape node.

    ``layers`` holds one or two ``(W, b)`` node pairs of equal width
    ``d``, in the models' concatenation order (private, shared). The value
    is ``[N, k*d]`` for ``k`` layers: row ``r`` is the layers' states after
    packed row ``r``, ``[h_r | s_r]`` for two, laid out by ``packing``.
    The vjp runs one BPTT loop per layer for the recurrent ``dh`` alone;
    the input and weight gradients are then one product each. Two layers'
    backwards run as :func:`_each` decides, and the input gradient is
    ``dX_p + dX_s``, the order in which :func:`~advmtl.autodiff.backward`
    would add the gradients of two separate fold nodes; a fold none of
    whose inputs needs a gradient runs no backward.
    """
    out, folds = _folds(xs.value, [(W.value, b.value) for W, b in layers], packing)
    d = out.shape[1] // len(layers)

    def vjp(g):
        calls = []
        for j, ((W, b), fold) in enumerate(zip(layers, folds)):
            if xs.needs_grad or W.needs_grad or b.needs_grad:
                # a contiguous block: the BPTT loop reads it a few rows at a time
                calls.append(partial(fold.backward,
                                     np.ascontiguousarray(g[:, j * d:(j + 1) * d])))
            else:
                calls.append(lambda: (None,) * 3)
        grads = _each(calls, d)
        dX = None
        if xs.needs_grad:
            dX = grads[0][0] if len(grads) == 1 else grads[0][0] + grads[1][0]
        return (dX, *(grad for _, dW, db in grads for grad in (dW, db)))

    return xs.tape.record(out, (xs, *itertools.chain.from_iterable(layers)), vjp)


def lstm_states(X: Tensor, layers, packing: Packing) -> Tensor:
    """The value of :func:`lstm_encode` over packed rows ``X`` and arrays ``(W, b)``, untaped.

    Row ``r`` is the layers' states after packed row ``r``; the row of a
    sentence's last token is ``packing.last``.
    """
    return _folds(X, layers, packing)[0]


def lstm_final_states(X: Tensor, layers, packing: Packing) -> tuple[Tensor, ...]:
    """Each layer's final states ``[B, d]`` over packed rows ``X``, in the caller's sentence order.

    ``layers`` is as for :func:`lstm_states`, and so is the order of the
    result. Each layer folds with :func:`_final_fold`, keeping only its
    running ``[B, d]`` state; two run as :func:`_each` decides.
    """
    d = _width(X, layers, packing)
    return tuple(_each([partial(_final_fold, X, W, b, packing) for W, b in layers], d))


def softmax_classify(h: Node, W: Node, b: Node) -> Node:
    """Class probabilities softmax(W h + b) of a feature vector, or of each row of ``h``.

    One tape node: its vjp is the softmax rule followed by the affine rule,
    the same operations in the same order as a softmax node over an affine
    node, so the gradients are bitwise those of the two-node chain.
    """
    hv, Wv, bv = h.value, W.value, b.value
    if Wv.ndim != 2 or bv.shape != (Wv.shape[0],):
        raise ShapeError(f"softmax_classify: incompatible W {Wv.shape} and b {bv.shape}")
    if hv.ndim not in (1, 2) or hv.shape[-1] != Wv.shape[1]:
        raise ShapeError(f"softmax_classify: input shape {hv.shape} does not match W {Wv.shape}")
    y = ad._softmax(ad._affine(hv, Wv, bv))

    def vjp(g):
        gz = y * (g - (g * y).sum(axis=-1, keepdims=True))
        if hv.ndim == 1:
            return (gz @ Wv, np.outer(gz, hv), gz)
        return (gz @ Wv, gz.T @ hv, gz.sum(axis=0))

    return h.tape.record(y, (h, W, b), vjp)
