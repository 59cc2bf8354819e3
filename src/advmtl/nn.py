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
Two layers run in two processes when :func:`_concurrent` allows it: the
calling process folds the shared layer, and the fold helper of
:mod:`advmtl.processes` folds the private one, bitwise as serially.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ad
from . import processes
from .autodiff import Node, Tensor
from .errors import InputError, ShapeError
from .processes import _BACKWARD, _FINAL, _STATES, _TAPED

INIT_RANGE = 0.1
GATE_BLOCK_ORDER = "cbar,o,i,f"
INPUT_ORDER = "x,h"


def _keep_freed_memory() -> None:
    """Make glibc keep freed memory in the process instead of returning it to the kernel.

    By default glibc maps each block above 128 kB on its own and unmaps it
    when freed, and trims free space off the top of a heap, so every
    training step faulted its arrays in afresh. With the mmap threshold at
    256 MiB and the trim threshold at 512 MiB, freed arrays are reused, in
    the calling process and in the fold helper alike. It acts
    process-wide, only on glibc, and not at all when the process was
    started with glibc's own ``MALLOC_MMAP_THRESHOLD_`` or
    ``MALLOC_TRIM_THRESHOLD_``.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
        return
    if not glibc or {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & os.environ.keys():
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 256 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 512 << 20)  # M_TRIM_THRESHOLD


_keep_freed_memory()


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
    """The :class:`Packing` of concatenated sentences of ``lengths``.

    No sentences, or an empty one, raise :class:`InputError`.
    """
    if not len(lengths):
        raise InputError("pack: no sentences")
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


@cache
def _gate_affine(d: int) -> tuple[Tensor, Tensor]:
    """The ``[4d]`` rows that turn ``tanh`` into the gate activations: scale, then shift.

    1 and -0.0 on the candidate block, which leaves it exactly as it is
    (signed zeros too), and 0.5 and 0.5 on the three sigmoid blocks.
    """
    scale, shift = np.full(4 * d, 0.5), np.full(4 * d, 0.5)
    scale[:d], shift[:d] = 1.0, -0.0
    scale.flags.writeable = shift.flags.writeable = False  # shared by every caller
    return scale, shift


def _lstm_step(z: Tensor, W_hT: Tensor, h_prev: Tensor | None, c_prev: Tensor | None,
               h: Tensor, c: Tensor, tanh_c: Tensor, zh: Tensor, cf: Tensor) -> None:
    """One LSTM step over the rows of ``z``, written into ``h``, ``c`` and ``tanh_c``.

    ``z`` holds the step's input term from :func:`_input_term` and is
    overwritten with the gate activations in block order. The previous
    state is ``(h_prev, c_prev)``, or zero when they are None. Both are read
    before the step writes ``h`` and ``c``, so the outputs may alias them.
    ``zh`` (``[n, 4d]``) and ``cf`` (``[n, d]``) are scratch for
    ``h_prev @ W_hT`` and ``c_prev * f``.
    """
    d = h.shape[1]
    if h_prev is not None:
        z += np.matmul(h_prev, W_hT, out=zh)
    np.tanh(z, out=z)
    scale, shift = _gate_affine(d)  # whole contiguous rows, not the strided sigmoid blocks
    z *= scale
    z += shift
    cbar, o, i, f = z[:, :d], z[:, d:2 * d], z[:, 2 * d:3 * d], z[:, 3 * d:]
    if c_prev is None:
        np.multiply(cbar, i, out=c)
    else:
        np.multiply(c_prev, f, out=cf)
        np.multiply(cbar, i, out=c)
        c += cf
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _final_fold(X: Tensor, W: Tensor, b: Tensor, packing: Packing) -> Tensor:
    """Final hidden state ``[B, d]`` of each sentence, in sorted order (``packing.order``).

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
    h, c, tanh_c, cf = (np.empty((B, d)) for _ in range(4))
    zh = np.empty((B, 4 * d))
    for t, n in enumerate(packing.active):
        prev = (h[:n], c[:n]) if t else (None, None)
        _lstm_step(Z[packing.offs[t]:packing.offs[t + 1]], W_hT, *prev,
                   h[:n], c[:n], tanh_c[:n], zh[:n], cf[:n])
    return h


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
        zh, cf = np.empty((self.active[0], 4 * d)), np.empty((self.active[0], d))
        for t, n in enumerate(self.active):
            r = slice(self.offs[t], self.offs[t + 1])
            p = slice(self.offs[t - 1], self.offs[t - 1] + n)
            prev = (self.H[p], self.C[p]) if t else (None, None)
            _lstm_step(self.Z[r], W_hT, *prev, self.H[r], self.C[r], self.tanh_C[r],
                       zh[:n], cf[:n])

    def backward(self, g: Tensor, into: tuple | None = None) -> tuple:
        """Gradients of (inputs, W, b) from the gradient of ``H``, all in packed order.

        ``into``, if given, holds the three arrays to write them into.
        """
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
        # o block scales the step's dh, the other three its dc. They and
        # dc_dh = o * (1 - tc * tc) are built in place, in the operand order
        # written; dc_dh is scratch until it is built last
        local = np.empty((N, 4, d))
        lc, lo, li, lf = (local[:, k] for k in range(4))
        dc_dh = np.empty((N, d))
        for out, x, y in ((lo, tc, o), (li, cbar, i), (lf, c_prev, f)):  # x * y * (1 - y)
            np.subtract(1.0, y, out=dc_dh)
            np.multiply(x, y, out=out)
            out *= dc_dh
        for out, x, y in ((lc, i, cbar), (dc_dh, o, tc)):  # x * (1 - y * y)
            np.multiply(y, y, out=out)
            np.subtract(1.0, out, out=out)
            out *= x
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
        dX, dW, db = into or (None,) * 3
        return (np.matmul(ga_rows, W[:, :e], out=dX), np.matmul(ga_rows.T, zs, out=dW),
                np.sum(ga_rows, axis=0, out=db))


CONCURRENT_MIN_HIDDEN = 32  # below it a request to the helper costs more than it saves


def _concurrent(d: int) -> bool:
    """Whether a pair of width-``d`` folds runs in two processes.

    Three conditions, from timings on a 2-vCPU VM:
    - ``d >= CONCURRENT_MIN_HIDDEN``. Smaller folds are too short to pay
      for a request. A fold pair's forward and backward (batch 16, lengths
      4-30, one BLAS thread; the medians of 60 or 100 interleaved
      repetitions) ran 0.91-1.10x as fast with the helper as serially at
      d = 16, 1.21x at d = 32, 1.22-1.32x at d = 64 and 1.64x at d = 200.
    - This process may run on at least 2 CPUs.
    - BLAS runs one thread: ``OPENBLAS_NUM_THREADS``, or if it is unset
      ``OMP_NUM_THREADS``, is ``1`` (the order in which OpenBLAS, which
      numpy's wheels bundle, reads them). BLAS's own threads use the same
      CPUs; with them a paper-scale step ran slower as a pair than alone.
    """
    env = os.environ
    return (d >= CONCURRENT_MIN_HIDDEN
            and env.get("OPENBLAS_NUM_THREADS", env.get("OMP_NUM_THREADS")) == "1"
            and processes.allowed_cpus() >= 2)


def _run(op):
    """The result of ``op`` in this process."""
    kind, *args = op
    if kind == _BACKWARD:
        fold, g = args
        if fold is None:  # no input of the fold needs a gradient
            return (None,) * 3
        if isinstance(fold, processes._Remote):  # its helper no longer holds it: fold again here
            fold = _LstmFold(*fold.args)
        return fold.backward(g)
    if kind == _FINAL:
        return _final_fold(*args)
    fold = _LstmFold(*args)
    return fold if kind == _TAPED else fold.H


def _reserve(op, d: int) -> processes._Helper | None:
    """The helper, locked and sent ``op``; or None, and ``op`` runs here.

    A backward waits for the helper its fold was folded in, which takes
    it if it still holds that fold (see ``_Helper.send``). Any other
    operation goes to this process's helper, started at the first, when
    :func:`_concurrent` allows it and ``processes._plain`` holds; a caller
    that finds the helper busy runs ``op`` itself, with the same result.
    """
    kind, *args = op
    if kind == _BACKWARD:
        remote, g = args
        if not (isinstance(remote, processes._Remote) and processes._plain(g)):
            return None
        helper = remote.helper
        helper.lock.acquire()
    else:
        if not (_concurrent(d) and processes._plain(*args[:3])):
            return None
        helper = processes._helper or processes._start_helper()
        if helper is None or not helper.lock.acquire(blocking=False):
            return None
    if helper.send(op):
        return helper
    helper.lock.release()
    return None


def _each(ops, d: int) -> list:
    """The results of one or two fold operations on width-``d`` layers, in the layers' order.

    Each operation is a tuple ``(kind, *args)``: ``(_TAPED, X, W, b,
    packing, H)`` folds into ``H`` and gives the fold for its backward;
    ``(_STATES, X, W, b, packing, H)`` folds into ``H`` and gives it;
    ``(_FINAL, X, W, b, packing)`` gives the final states in sorted order; and
    ``(_BACKWARD, fold, g)`` gives ``(dX, dW, db)``, or three None for a
    fold of None. The layers are in the order (private, shared). The last,
    the shared layer's, runs first and in this process; with two, the
    other runs meanwhile in the helper when :func:`_reserve` sends it
    there, else afterwards here. Either way an error surfaces as it would
    serially, the shared operation's first, and so do the warnings.
    """
    *rest, last = ops
    helper = _reserve(rest[0], d) if rest else None
    if helper is None:
        out = _run(last)
        return [_run(op) for op in rest] + [out]
    try:
        try:
            out = _run(last)
        finally:  # the helper writes into the block, which the next request reuses
            reply = helper.receive(rest[0])
    finally:
        helper.lock.release()
    if reply is None:  # the helper is gone: as serially, after the shared operation
        return [_run(rest[0]), out]
    got, caught, error = reply
    for message, category in caught:
        warnings.warn(message, category, stacklevel=2)
    if error is not None:
        raise error
    return [got, out]


def _width(X: Tensor, layers, packing: Packing) -> int:
    """The width ``d`` of one or two layers ``(W [4d, e + d], b [4d])`` over packed rows ``X``."""
    d = layers[-1][1].shape[0] // 4 if layers else 0
    want = ((4 * d, X.shape[-1] + d), (4 * d,))
    if (X.ndim != 2 or len(X) != packing.offs[-1] or not 1 <= len(layers) <= 2
            or any((W.shape, b.shape) != want for W, b in layers)):
        raise ShapeError(f"lstm: layers {[(W.shape, b.shape) for W, b in layers]} over "
                         f"inputs {X.shape} for {packing.offs[-1]} packed rows")
    return d


def _folds(kind: int, X: Tensor, layers, packing: Packing) -> tuple[Tensor, list]:
    """The states ``[N, k*d]`` of ``k`` layers' folds of ``kind`` over packed rows ``X``.

    Also the folds' results, as :func:`_each` gives them.
    """
    d = _width(X, layers, packing)
    out = np.empty((len(X), len(layers) * d))
    return out, _each([(kind, X, W, b, packing, out[:, j * d:(j + 1) * d])
                       for j, (W, b) in enumerate(layers)], d)


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
    out, folds = _folds(_TAPED, xs.value, [(W.value, b.value) for W, b in layers], packing)
    d = out.shape[1] // len(layers)

    def vjp(g):
        ops = [(_BACKWARD, None, None)] * len(layers)
        for j, ((W, b), fold) in enumerate(zip(layers, folds)):
            if xs.needs_grad or W.needs_grad or b.needs_grad:
                # a contiguous block: the BPTT loop reads it a few rows at a time
                ops[j] = (_BACKWARD, fold, np.ascontiguousarray(g[:, j * d:(j + 1) * d]))
        grads = _each(ops, d)
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
    return _folds(_STATES, X, layers, packing)[0]


def lstm_final_states(X: Tensor, layers, packing: Packing) -> tuple[Tensor, ...]:
    """Each layer's final states ``[B, d]`` over packed rows ``X``, in the caller's sentence order.

    ``layers`` is as for :func:`lstm_states`, and so is the order of the
    result. Each layer folds with :func:`_final_fold`, keeping only its
    running ``[B, d]`` state; two run as :func:`_each` decides.
    """
    d = _width(X, layers, packing)
    finals = _each([(_FINAL, X, W, b, packing) for W, b in layers], d)
    inverse = np.argsort(packing.order)
    return tuple(h[inverse] for h in finals)


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
