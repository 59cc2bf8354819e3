"""Independent reference implementations used as test oracles, and test-only tape ops.

The tape ops :func:`add`, :func:`mul`, :func:`matmul`, :func:`tanh`,
:func:`concat` and :func:`sum_all` record on an ``autodiff.Tape`` through
``Tape.record``. No training step records them, so they live here: tests
build scratch graphs and losses with them, and ``tests/test_autodiff.py``
checks each against finite differences.

Everything else except :func:`lstm_step` and :func:`batch_terms` is
deliberately written with explicit scalar loops and the math library,
sharing no code with the package under test. :func:`lstm_step` is one LSTM
timestep as a tape node with a hand-derived backward rule; the fold
node ``nn.lstm_encode``, with one layer, is checked against it.
:class:`PaddedLstmFold` is the padded ``[T, B]`` fold that the packed
``nn._LstmFold`` replaced; the packed fold is checked against it.
:func:`batch_terms` builds a batch's loss terms one sentence at a time;
the batched ``train._batch_terms`` is checked against it.
:func:`backward_copy_accumulate` is the reverse sweep with the gradient
accumulation ``autodiff.backward`` used before it stopped copying first
gradients; the new rule is checked bitwise against it.
:class:`EagerTaskBatcher` builds each pass's batches as a list and refills
a task's stream by hand when it runs dry; the generator streams of
``data.TaskBatcher`` are checked against it.
:func:`cross_entropy_composed` is the cross-entropy as the five-node
chain ``losses.cross_entropy`` replaced, with an unclamped log; the one
node is checked bitwise against it.
:func:`softmax_classify_composed` is the classifier as the affine node
and softmax node that ``nn.softmax_classify`` replaced; the one node is
checked bitwise against it, and :func:`softmax_node` is the softmax alone
as that one node.
:func:`combine_composed` is the step's objective as the two scale nodes
and the sum node that the one node of ``train._combine`` replaced; the
one node is checked bitwise against it.
:func:`generate_synthetic_scalar` is the synthetic corpus generator that
calls ``Generator.random()`` and ``Generator.integers`` once per value;
``data.generate_synthetic``, which rebuilds those values from PCG64's raw
outputs, is checked against it.
"""

import math
from bisect import bisect_left
from functools import reduce

import numpy as np

from advmtl import autodiff as ad
from advmtl import data as D
from advmtl import losses as L
from advmtl import models as M
from advmtl import nn
from advmtl.autodiff import GradReversalSpec
from advmtl.errors import ContractError, ShapeError


# ---------------------------------------------------------------------------
# test-only tape ops: scratch graphs for the tape, the folds and the losses
# ---------------------------------------------------------------------------

def add(a, b):
    """Elementwise sum; also accepts matrix + row-vector (bias broadcast)."""
    tape = a.tape
    va, vb = a.value, b.value
    if va.shape == vb.shape:
        return tape.record(va + vb, (a, b), lambda g: (g, g))
    if va.ndim == 2 and vb.ndim == 1 and va.shape[1] == vb.shape[0]:
        return tape.record(va + vb, (a, b), lambda g: (g, g.sum(axis=0)))
    raise ShapeError(f"add: incompatible shapes {va.shape} and {vb.shape}")


def mul(a, b):
    """Elementwise (Hadamard) product of same-shaped operands."""
    tape = a.tape
    va, vb = a.value, b.value
    if va.shape != vb.shape:
        raise ShapeError(f"mul: incompatible shapes {va.shape} and {vb.shape}")
    return tape.record(va * vb, (a, b), lambda g: (g * vb, g * va))


def matmul(a, b):
    """Matrix product: [m,k]@[k,n] -> [m,n] or [m,k]@[k] -> [m]."""
    tape = a.tape
    va, vb = a.value, b.value
    if va.ndim == 2 and vb.ndim == 2:
        if va.shape[1] != vb.shape[0]:
            raise ShapeError(
                f"matmul: inner dimensions disagree for {va.shape} and {vb.shape}")
        return tape.record(va @ vb, (a, b),
                           lambda g: (g @ vb.T, va.T @ g))
    if va.ndim == 2 and vb.ndim == 1:
        if va.shape[1] != vb.shape[0]:
            raise ShapeError(
                f"matmul: inner dimensions disagree for {va.shape} and {vb.shape}")
        return tape.record(va @ vb, (a, b),
                           lambda g: (np.outer(g, vb), va.T @ g))
    raise ShapeError(f"matmul: unsupported ranks {va.shape} and {vb.shape}")


def tanh(a):
    """Elementwise tanh."""
    y = np.tanh(a.value)
    return a.tape.record(y, (a,), lambda g: (g * (1.0 - y * y),))


def concat(parts, axis=0):
    """Concatenate vectors (axis 0) or matrices (axis 0 or 1)."""
    if not parts:
        raise ContractError("concat of zero nodes")
    tape = parts[0].tape
    vals = [p.value for p in parts]
    ndim = vals[0].ndim
    for v in vals[1:]:
        if v.ndim != ndim:
            raise ShapeError(
                f"concat: mixed ranks {vals[0].shape} and {v.shape}")
    if axis >= ndim:
        raise ShapeError(f"concat: axis {axis} out of range for rank {ndim}")
    try:
        out = np.concatenate(vals, axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from None
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        slicer = [slice(None)] * ndim
        grads = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return tape.record(out, parts, vjp)


def sum_all(a):
    """Reduce to a scalar by summing every element."""
    shape = a.value.shape
    return a.tape.record(np.asarray(a.value.sum()), (a,),
                         lambda g: (np.broadcast_to(g, shape).copy() if shape else g,))


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def matmul_loops(a, b):
    m, k = len(a), len(a[0])
    n = len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return np.array(out)


def sigmoid_scalar(x):
    return 1.0 / (1.0 + math.exp(-x))


def lstm_step_loops(x, h_prev, c_prev, W, b):
    """One LSTM transition, scalar by scalar; returns (h, c, gates dict)."""
    d = len(b) // 4
    e = len(x)
    z = list(x) + list(h_prev)
    pre = []
    for i in range(4 * d):
        s = b[i]
        for j in range(d + e):
            s += W[i][j] * z[j]
        pre.append(s)
    cbar = [math.tanh(pre[i]) for i in range(d)]
    o = [sigmoid_scalar(pre[d + i]) for i in range(d)]
    i_gate = [sigmoid_scalar(pre[2 * d + i]) for i in range(d)]
    f = [sigmoid_scalar(pre[3 * d + i]) for i in range(d)]
    c = [cbar[i] * i_gate[i] + c_prev[i] * f[i] for i in range(d)]
    h = [o[i] * math.tanh(c[i]) for i in range(d)]
    gates = {"cbar": cbar, "o": o, "i": i_gate, "f": f}
    return np.array(h), np.array(c), gates


def lstm_encode_loops(xs, W, b):
    d = len(b) // 4
    h = np.zeros(d)
    c = np.zeros(d)
    all_h = []
    for x in xs:
        h, c, _ = lstm_step_loops(list(x), list(h), list(c), W, b)
        all_h.append(h)
    return h, np.array(all_h)


def softmax_direct(logits):
    e = [math.exp(v) for v in logits]
    s = sum(e)
    return np.array([v / s for v in e])


def cross_entropy_scalar(probs, label):
    return -math.log(probs[label])


def log_node(a):
    """Natural log as a tape node, with no clamp."""
    v = a.value
    return a.tape.record(np.log(v), (a,), lambda g: (g / v,))


def cross_entropy_composed(probs, labels):
    """``losses.cross_entropy`` as the chain of five nodes it replaced.

    A one-hot constant, the log, their product, the sum and the scale by
    ``-1/rows``; with ``log_node`` in place of the old clamped log, the two
    agree wherever no probability is below 1e-12.
    """
    p = probs.value
    rows = p.shape[0] if p.ndim == 2 else 1
    onehot = probs.tape.constant(np.eye(p.shape[-1])[labels])
    return ad.scale(sum_all(mul(onehot, log_node(probs))), -1.0 / rows)


def combine_composed(l_ce, l_adv, l_diff, task, cfg):
    """``train._combine`` as the nodes it replaced: two scales and their sum.

    ``alpha_k * ce`` and ``gamma * diff`` are scale nodes and the present
    terms are summed left to right by a chain of ``add`` nodes; a lone
    term is returned as the chain's first node.
    """
    terms = []
    if l_ce is not None:
        terms.append(ad.scale(l_ce, 1.0 if cfg.alpha is None else cfg.alpha[task]))
    if l_adv is not None:
        terms.append(l_adv)
    if l_diff is not None:
        terms.append(ad.scale(l_diff, cfg.diff_weight))
    return reduce(add, terms)


def softmax_classify_composed(h, W, b):
    """``nn.softmax_classify`` as the two nodes it replaced: an affine map, then a softmax."""
    hv, Wv = h.value, W.value

    def affine_vjp(g):
        if hv.ndim == 1:
            return (g @ Wv, np.outer(g, hv), g)
        return (g @ Wv, g.T @ hv, g.sum(axis=0))

    z = h.tape.record(hv @ Wv.T + b.value, (h, W, b), affine_vjp)
    y = ad._softmax(z.value)
    return h.tape.record(y, (z,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


def softmax_node(z):
    """The softmax of ``z`` (a vector, or each row of a matrix) as one tape node.

    It is ``nn.softmax_classify`` with identity weights and a zero bias, whose
    value and gradient into ``z`` are bitwise the softmax's own.
    """
    n = z.value.shape[-1]
    return nn.softmax_classify(z, z.tape.constant(np.eye(n)), z.tape.constant(np.zeros(n)))


def frobenius_sq_loops(S, H):
    """sum_ij (S^T H)_ij^2 with explicit triple loops."""
    T, d = len(S), len(S[0])
    dh = len(H[0])
    total = 0.0
    for i in range(d):
        for j in range(dh):
            m = 0.0
            for t in range(T):
                m += S[t][i] * H[t][j]
            total += m * m
    return total


def lstm_step(x, h_prev, c_prev, W, b):
    """One LSTM transition on the tape; returns (h, c) nodes.

    Recorded as a single fused node (plus two row extractions) whose
    backward rule is derived by hand for one step.
    """
    d = b.value.shape[0] // 4
    e = W.value.shape[1] - d
    if x.value.shape != (e,):
        raise ShapeError(f"lstm_step: input shape {x.value.shape}, expected ({e},)")
    if h_prev.value.shape != (d,) or c_prev.value.shape != (d,):
        raise ShapeError(
            f"lstm_step: state shapes {h_prev.value.shape}/{c_prev.value.shape}, "
            f"expected ({d},)")

    Wv, bv = W.value, b.value
    z = np.concatenate([x.value, h_prev.value])
    pre = Wv @ z + bv
    cbar = np.tanh(pre[:d])
    gates = 0.5 * np.tanh(0.5 * pre[d:]) + 0.5
    o, i, f = gates[:d], gates[d:2 * d], gates[2 * d:]
    c = cbar * i + c_prev.value * f
    tc = np.tanh(c)
    h = o * tc
    c_prev_v = c_prev.value

    def vjp(g):
        gh, gc_in = g[0], g[1]
        go = gh * tc
        gc = gc_in + gh * o * (1.0 - tc * tc)
        ga = np.empty(4 * d)
        ga[:d] = gc * i * (1.0 - cbar * cbar)       # candidate block
        ga[d:2 * d] = go * o * (1.0 - o)            # output gate
        ga[2 * d:3 * d] = gc * cbar * i * (1.0 - i)  # input gate
        ga[3 * d:] = gc * c_prev_v * f * (1.0 - f)   # forget gate
        gz = Wv.T @ ga
        return (gz[:e], gz[e:], gc * f, np.outer(ga, z), ga)

    pair = x.tape.record(np.stack([h, c]), (x, h_prev, c_prev, W, b), vjp)
    return ad.row(pair, 0), ad.row(pair, 1)


def backward_copy_accumulate(tape, loss):
    """``ad.backward``'s sweep with the copy-then-``+=`` accumulation rule.

    A node's first gradient is copied into a fresh float64 array (a
    ``RowGrad`` is kept) and later ones are added into that copy in place;
    a ``RowGrad`` accumulator is summed with ``+``. The tape's closures are
    run but neither dropped nor released, so the tape stays readable.
    """
    nodes, vjps = tape.nodes, tape._vjps
    grads = [None] * len(nodes)
    if loss.needs_grad:
        grads[loss.idx] = np.asarray(1.0)
    for idx in range(loss.idx, -1, -1):
        g = grads[idx]
        if g is None or vjps[idx] is None:
            continue
        for parent_idx, pg in zip(nodes[idx].parents, vjps[idx](g)):
            if pg is None or not nodes[parent_idx].needs_grad:
                continue
            acc = grads[parent_idx]
            if acc is None:
                grads[parent_idx] = (pg if isinstance(pg, ad.RowGrad)
                                     else np.array(pg, dtype=np.float64, copy=True))
            elif isinstance(acc, ad.RowGrad):
                grads[parent_idx] = acc + pg
            else:
                acc += pg
    return {i: grads[i] for i in tape._leaf_ids if grads[i] is not None}


def _mean(nodes):
    return ad.scale(reduce(add, nodes), 1.0 / len(nodes))


def _stack_rows(rows):
    """Same-length vector nodes as the rows of one matrix node."""
    return rows[0].tape.record(np.stack([r.value for r in rows]), rows, lambda g: tuple(g))


class PaddedLstmFold:
    """The LSTM fold over a padded, length-sorted, time-major ``[T, B]`` batch.

    Same contract as ``nn._LstmFold`` (zero initial state, zero rows past
    each length): every step reads the full ``[T, B]`` arrays, padded slots
    being zero, the recurrent weight is a strided view of ``W``, and the
    BPTT loop computes the whole ``[x; h_prev]`` gradient at every step.
    """

    def __init__(self, X, W, b, lengths):
        B, T, e = X.shape
        d = b.shape[0] // 4
        lengths = np.asarray(lengths, dtype=np.intp)
        self.order = np.argsort(-lengths, kind="stable")
        self.unsort = np.argsort(self.order)
        self.active = [int(n) for n in np.count_nonzero(lengths[:, None] > np.arange(T), axis=0)]
        self.d, self.e, self.W = d, e, W
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
        h_prev, c_prev = np.zeros((B, d)), np.zeros((B, d))
        for t, n in enumerate(self.active):
            pre = pre_x[t, :n] + h_prev[:n] @ W_hT
            cbar = np.tanh(pre[:, :d], out=self.cbar[t, :n])
            gates = self.gates[t, :n]
            gates[...] = 0.5 * np.tanh(0.5 * pre[:, d:]) + 0.5
            o, i, f = gates[:, :d], gates[:, d:2 * d], gates[:, 2 * d:]
            c = np.multiply(cbar, i, out=self.C[t, :n])
            c += c_prev[:n] * f
            tc = np.tanh(c, out=self.tanh_C[t, :n])
            np.multiply(o, tc, out=self.H[t, :n])
            h_prev, c_prev = self.H[t], self.C[t]

    def outputs(self):
        return self.H.transpose(1, 0, 2)[self.unsort]

    def backward(self, g):
        """Gradients of (inputs, W, b) from the gradient of :meth:`outputs`."""
        d, e, W = self.d, self.e, self.W
        T, B = self.H.shape[:2]
        g = g[self.order].transpose(1, 0, 2)
        zs = np.zeros((T, B, e + d))  # the [x; h_prev] input of every step
        zs[:, :, :e] = self.X
        zs[1:, :, e:] = self.H[:-1]
        o, i, f = (self.gates[:, :, k * d:(k + 1) * d] for k in range(3))
        cbar, tc = self.cbar, self.tanh_C
        c_prev = np.concatenate([np.zeros((1, B, d)), self.C[:-1]])
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
        return dX.transpose(1, 0, 2)[self.unsort], dW, db


def batch_terms(bound, config, batch, cfg):
    """(task CE, adversarial CE, diff) of a batch, one graph per sentence.

    Each sentence runs through ``models.forward`` on its own, and each term
    is the mean of the per-sentence terms.
    """
    tape = bound["embeddings"].tape
    adversarial = config.has_discriminator
    rev = GradReversalSpec(cfg.adv_weight) if adversarial else None
    ce_nodes, adv_nodes, diff_nodes = [], [], []
    finals = []
    if batch.is_unlabeled:
        if not adversarial:
            raise ContractError("unlabeled batches require the adversarial scheme")
        for seq in batch.sequences:
            res = M.forward_batch(bound, config, [seq], None, want_disc=False)
            disc_probs = M.discriminate(ad.gradient_reversal(ad.row(res.s_T, 0), rev),
                                        bound["disc.W"], bound["disc.b"])
            adv_nodes.append(L.cross_entropy(disc_probs, batch.task))
        return None, _mean(adv_nodes), None
    for seq, label in zip(batch.sequences, batch.labels):
        res = M.forward(tape, bound, config, seq, batch.task,
                        rev_spec=rev, want_disc=adversarial)
        ce_nodes.append(L.cross_entropy(res.class_probs, label))
        if adversarial:
            adv_nodes.append(L.cross_entropy(res.disc_probs, batch.task))
            if cfg.diff_mode == "sentence":
                diff_nodes.append(L.diff_loss(res.S, res.H))
            else:
                finals.append((res.s_T, res.h_T))
    l_ce = _mean(ce_nodes)
    l_adv = _mean(adv_nodes) if adv_nodes else None
    if diff_nodes:
        l_diff = _mean(diff_nodes)
    elif finals:
        S = _stack_rows([s for s, _ in finals])
        H = _stack_rows([h for _, h in finals])
        l_diff = ad.scale(L.diff_loss(S, H), 1.0 / len(finals))
    else:
        l_diff = None
    return l_ce, l_adv, l_diff


class EagerTaskBatcher:
    """``data.TaskBatcher`` as it was: each pass's batches built at once, refilled by hand.

    Each pass of a (task, pool) is shuffled with the seed
    ``(seed, task, pass, unlabeled)`` and cut into ``size`` chunks; a pass
    counter per pool names the next pass when the current one runs dry.
    """

    def __init__(self, datasets, size, seed, unlabeled_ratio=1.0):
        self.datasets, self.size, self.seed = list(datasets), size, seed
        self.unlabeled_ratio = unlabeled_ratio
        self._labeled = [self._pass_iter(t, 0, False) for t in range(len(self.datasets))]
        self._unlabeled = [self._pass_iter(t, 0, True) for t in range(len(self.datasets))]
        self._pass = [[0, 0] for _ in self.datasets]  # labeled, unlabeled pass counters
        self._credit = [0.0 for _ in self.datasets]

    def _pass_iter(self, task, pass_idx, unlabeled):
        ds = self.datasets[task]
        pool = ds.unlabeled if unlabeled else ds.train
        if not pool:
            return iter(())
        order = np.random.default_rng((self.seed, task, pass_idx, int(unlabeled))).permutation(
            len(pool))
        items = [pool[i] for i in order]
        chunks = [items[i:i + self.size] for i in range(0, len(items), self.size)]
        if unlabeled:
            return iter([D.Batch(task, seqs, None) for seqs in chunks])
        return iter([D.Batch(task, [ex.tokens for ex in chunk], [ex.label for ex in chunk])
                     for chunk in chunks])

    def next_labeled(self, task):
        batch = next(self._labeled[task], None)
        if batch is None:
            self._pass[task][0] += 1
            self._labeled[task] = self._pass_iter(task, self._pass[task][0], False)
            batch = next(self._labeled[task])
        return batch

    def next_unlabeled(self, task):
        if not self.datasets[task].unlabeled:
            return []
        out = []
        self._credit[task] += self.unlabeled_ratio
        while self._credit[task] >= 1.0:
            self._credit[task] -= 1.0
            batch = next(self._unlabeled[task], None)
            if batch is None:
                self._pass[task][1] += 1
                self._unlabeled[task] = self._pass_iter(task, self._pass[task][1], True)
                batch = next(self._unlabeled[task])
            out.append(batch)
        return out


def _synth_sentence_scalar(rng, spec, pol_map, shared_pool, shared_cum,
                           own_pool, contam_pool, filler_pool, filler_cum):
    cuts = (spec.shared_rate,
            spec.shared_rate + spec.own_rate,
            spec.shared_rate + spec.own_rate + spec.contaminant_rate)
    polar_fallback = own_pool if own_pool else shared_pool

    def draw():
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        tokens = []
        for _ in range(length):
            u = rng.random()
            if u < cuts[0] and shared_pool:
                tokens.append(shared_pool[bisect_left(shared_cum, rng.random())])
                continue
            elif u < cuts[1] and own_pool:
                pool = own_pool
            elif u < cuts[2] and contam_pool:
                pool = contam_pool
            elif filler_pool:
                tokens.append(filler_pool[bisect_left(filler_cum, rng.random())])
                continue
            else:
                pool = polar_fallback
            tokens.append(pool[int(rng.integers(len(pool)))])
        return tokens, sum(pol_map.get(t, 0) for t in tokens)

    tokens, score = draw()
    for _ in range(50):
        if abs(score) >= spec.min_margin:
            break
        tokens, score = draw()
    while abs(score) < spec.min_margin:
        want = 1 if (score > 0 or (score == 0 and rng.random() < 0.5)) else -1
        pool = [t for t in polar_fallback if pol_map[t] == want]
        tokens.append(pool[int(rng.integers(len(pool)))])
        score += want
    if spec.domain_bias > 0 and filler_pool:
        tokens.append(filler_pool[bisect_left(filler_cum, rng.random())])
    label = 1 if score > 0 else 0
    if spec.noise_rate > 0 and rng.random() < spec.noise_rate:
        label = 1 - label
    return tokens, label


def generate_synthetic_scalar(spec):
    """``data.generate_synthetic`` with one ``Generator`` call per drawn value."""
    (task_names, polarity, shared_pool, own_only, contam_pool,
     filler_pool, provenance) = D._synth_vocab(spec)
    corpus = {}

    def biased_cum(pool_len, task):
        if pool_len == 0:
            return []
        idx = np.arange(pool_len)
        weights = np.where(idx % spec.tasks == task, 1.0 + spec.domain_bias, 1.0)
        return np.cumsum(weights / weights.sum()).tolist()

    for k, name in enumerate(task_names):
        rng = np.random.default_rng((spec.seed, k))
        args = (spec, polarity[name], shared_pool, biased_cum(len(shared_pool), k),
                own_only[name], contam_pool[name], filler_pool,
                biased_cum(len(filler_pool), k))
        labeled = [_synth_sentence_scalar(rng, *args) for _ in range(spec.sentences_per_task)]
        unlabeled = [_synth_sentence_scalar(rng, *args)[0]
                     for _ in range(spec.unlabeled_per_task)]
        train, dev, test = D.partition(labeled, seed=spec.seed)
        corpus[name] = D.RawTask(name=name, n_classes=2,
                                 splits={"train": train, "dev": dev, "test": test},
                                 unlabeled=unlabeled)
    return corpus, provenance
