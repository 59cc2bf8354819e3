"""Dense float64 tensors and a reverse-mode differentiation tape.

Values are plain C-order ``numpy`` arrays; the tape records one node per
operation with the ids of its inputs and a closure computing the
vector-Jacobian product. A tape is single-use: build a forward graph,
call :func:`backward` once, throw it away. The sweep releases the tape
(:meth:`Tape.release`): it drops the node list and every closure, so a
finished step's forward values are freed by reference counting, not left
to the cycle collector. Gradients are dense arrays, except that a leaf
matrix read through :func:`take_rows` (the embedding table) gets a
row-sparse :class:`RowGrad`.

The operations here are those a training step records around the LSTM
folds and the classifier (``nn``) and the losses (``losses``): the
embedding lookup :func:`take_rows`, the row and column slices
:func:`row` and :func:`columns`, :func:`scatter_rows` (packed rows into
``[B, T]`` blocks for the diff loss), :func:`scale` and
:func:`gradient_reversal`.

A vjp must not write into the upstream gradient it is given: it may be
the gradient another node received too (the one node of
``train._combine`` hands its own ``g`` to its unweighted adversarial
term), and ``backward`` keeps a node's first gradient as the vjp
returned it. For the same reason gradients that :func:`backward` returns
may share memory with one another.

Everything runs in double precision so finite-difference checks are
meaningful. Shape mismatches raise :class:`~advmtl.errors.ShapeError`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

Tensor = np.ndarray


def tensor(data) -> Tensor:
    """Coerce ``data`` to a finite, C-ordered float64 array (0-d allowed)."""
    arr = np.asarray(data, dtype=np.float64, order="C")
    if not np.all(np.isfinite(arr)):
        raise ContractError("tensor contains non-finite values")
    return arr


def _add_rows_at(out: Tensor, at: np.ndarray, rows: Tensor) -> None:
    """``np.add.at(out, at, rows)`` for matrices as one flat scatter.

    The additions and their order are the same; numpy's fast path for flat
    indices makes it several times faster.
    """
    e = out.shape[1]
    np.add.at(out.reshape(-1), (at[:, None] * e + np.arange(e)).reshape(-1),
              np.ravel(rows))


class RowGrad:
    """Row-sparse gradient of a ``[V, e]`` table read by :func:`take_rows`.

    ``ids`` are the distinct row ids and ``rows[k]`` is row ``ids[k]`` of the
    dense gradient, whose other rows are zero. The upstream rows of each id
    are summed once, when the gradient is made, in the order
    ``np.add.at`` would add them into a zero matrix. ``np.asarray`` gives the
    dense matrix; ``size``, ``nbytes`` and ``itemsize`` describe the stored
    rows, as ``scipy.sparse`` does.
    """

    __slots__ = ("shape", "ids", "rows")

    def __init__(self, idx: np.ndarray, rows: Tensor, shape: tuple[int, int]):
        self.shape = shape
        self.ids, at = np.unique(idx, return_inverse=True)
        self.rows = np.zeros((len(self.ids), shape[1]))
        _add_rows_at(self.rows, at, rows)

    @property
    def size(self) -> int:
        return self.rows.size

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes

    @property
    def itemsize(self) -> int:
        return self.rows.itemsize

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a row-sparse gradient has no dense array to share")
        out = np.zeros(self.shape, dtype=self.rows.dtype)
        out[self.ids] = self.rows
        return out if dtype is None else out.astype(dtype, copy=False)

    def __add__(self, other):
        """Sum in the order ``self + other``, as the dense arrays would add."""
        if not isinstance(other, RowGrad):
            out = np.asarray(self)
            out += other
            return out
        # each side holds an id at most once, so a shared id sums as (0 + a) + b
        return RowGrad(np.concatenate([self.ids, other.ids]),
                       np.concatenate([self.rows, other.rows]), self.shape)


class Node:
    """Handle to one recorded value on a tape.

    ``needs_grad`` is true for a leaf and for every node with a leaf
    upstream of it; :func:`backward` runs no vjp for the other nodes.
    """

    __slots__ = ("tape", "idx", "value", "parents", "is_leaf", "needs_grad")

    def __init__(self, tape: "Tape", idx: int, value: Tensor,
                 parents: tuple[int, ...], is_leaf: bool, needs_grad: bool):
        self.tape = tape
        self.idx = idx
        self.value = value
        self.parents = parents
        self.is_leaf = is_leaf
        self.needs_grad = needs_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "node"
        return f"<{kind} {self.idx} shape={self.value.shape}>"


# A vjp takes the upstream gradient and returns one gradient per parent
# (None for parents that do not need one).
Vjp = Callable[[Tensor], tuple]


class Tape:
    """Append-only record of operations for one forward/backward pair.

    ``len(tape)`` is the number of nodes recorded, also after the tape has
    been swept and released.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._vjps: list[Vjp | None] = []
        self._leaf_ids: list[int] = []
        self.swept = False
        self._released_len = 0

    def __len__(self) -> int:
        return self._released_len if self.swept else len(self.nodes)

    def release(self) -> None:
        """Drop the node list and every closure; later records are a :class:`ContractError`.

        Each node points at its tape and a closure may point at nodes, so a
        tape that keeps them is a reference cycle. Once released, a step's
        graph is freed as soon as the caller drops its last node. The nodes
        that the caller still holds keep their ``value``. Releasing twice
        is harmless.
        """
        if not self.swept:
            self._released_len = len(self.nodes)
            self.swept = True
        self.nodes, self._vjps, self._leaf_ids = [], [], []

    def _append(self, value: Tensor, parents: tuple[int, ...],
                vjp: Vjp | None, is_leaf: bool, needs_grad: bool) -> Node:
        if self.swept:
            raise ContractError("this tape has been swept; record on a new tape")
        node = Node(self, len(self.nodes), value, parents, is_leaf, needs_grad)
        self.nodes.append(node)
        self._vjps.append(vjp)
        if is_leaf:
            self._leaf_ids.append(node.idx)
        return node

    def leaf(self, value, validate: bool = True) -> Node:
        """Register a trainable parameter; it will appear in gradient maps.

        ``validate=False`` skips the finiteness check for values already
        known to be finite float64 arrays (hot path when re-binding model
        parameters every minibatch).
        """
        v = tensor(value) if validate else np.asarray(value, dtype=np.float64)
        return self._append(v, (), None, True, True)

    def constant(self, value, validate: bool = True) -> Node:
        """Register a non-trainable input; gradients stop here silently."""
        v = tensor(value) if validate else np.asarray(value, dtype=np.float64)
        return self._append(v, (), None, False, False)

    def record(self, value: Tensor, parents: Sequence[Node], vjp: Vjp) -> Node:
        """Append an operation result; ``vjp`` maps upstream grad to parent grads."""
        needs_grad = False
        for p in parents:
            if p.tape is not self:
                raise ContractError("operands recorded on different tapes")
            needs_grad |= p.needs_grad
        return self._append(value, tuple(p.idx for p in parents), vjp, False, needs_grad)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def scale(a: Node, c: float) -> Node:
    """Multiply by a non-differentiated scalar constant."""
    c = float(c)
    return a.tape.record(a.value * c, (a,), lambda g: (g * c,))


def _softmax(x: Tensor) -> Tensor:
    # stabilized by max subtraction; rows of a matrix are normalized separately
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """The rows of ``x`` (or the vector ``x``) through a linear layer: x @ W.T + b."""
    return x @ W.T + b


def row(a: Node, i) -> Node:
    """Slice ``i`` of the first axis: one row, or the rows at an array of distinct indices."""
    if a.value.ndim < 2:
        raise ShapeError(f"row: expected a matrix, got shape {a.value.shape}")

    def vjp(g):
        out = np.zeros_like(a.value)
        out[i] = g
        return (out,)

    return a.tape.record(a.value.take(i, axis=0), (a,), vjp)


def columns(a: Node, start: int, stop: int) -> Node:
    """Entries ``start:stop`` of the last axis: a slice of a vector, or a block of columns.

    The value is a view of ``a``'s; the vjp places the upstream gradient in
    those columns of a zero array.
    """
    if a.value.ndim not in (1, 2) or not 0 <= start < stop <= a.value.shape[-1]:
        raise ShapeError(f"columns: {start}:{stop} of shape {a.value.shape}")

    def vjp(g):
        out = np.zeros_like(a.value)
        out[..., start:stop] = g
        return (out,)

    return a.tape.record(a.value[..., start:stop], (a,), vjp)


def take_rows(a: Node, indices: Sequence[int]) -> Node:
    """Gather rows by index (embedding lookup); duplicates accumulate.

    The gradient of a leaf ``a`` is a :class:`RowGrad` over the distinct
    indices, so no ``[V, e]`` array is built; a computed ``a`` gets it dense.
    """
    if a.value.ndim != 2:
        raise ShapeError(f"take_rows: expected a matrix, got shape {a.value.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("take_rows: indices must be a flat sequence")
    if len(idx) == 0:
        raise ContractError("take_rows: empty index list")
    if idx.min() < 0 or idx.max() >= a.value.shape[0]:
        raise ShapeError(
            f"take_rows: index out of range for {a.value.shape[0]} rows")

    def vjp(g):
        grad = RowGrad(idx, g, a.value.shape)
        return (grad if a.is_leaf else np.asarray(grad),)

    return a.tape.record(a.value[idx], (a,), vjp)


def scatter_rows(a: Node, at: np.ndarray, shape: tuple[int, ...]) -> Node:
    """Row ``r`` of ``a`` at flat slot ``at[r]`` of a zero array whose leading axes are ``shape``.

    The slots are distinct. Those no row fills are constant: no gradient reaches them.
    """
    at, n, rest = np.asarray(at, dtype=np.intp), int(np.prod(shape)), a.value.shape[1:]
    if at.size == 0 or at.shape != a.value.shape[:1] or at.min() < 0 or at.max() >= n:
        raise ShapeError(f"scatter_rows: slots {at} for {a.value.shape} rows into {shape}")
    out = np.zeros((n, *rest))
    out[at] = a.value
    return a.tape.record(out.reshape(*shape, *rest), (a,), lambda g: (g.reshape(n, *rest)[at],))


def gradient_reversal(a: Node, scale: float) -> Node:
    """Identity in the forward pass; multiplies the gradient by -scale going back.

    ``scale`` is the adversarial weight, finite and >= 0.
    """
    s = float(scale)
    if not np.isfinite(s) or s < 0:
        raise ConfigError(f"gradient reversal scale must be >= 0, got {scale}")
    return a.tape.record(a.value, (a,), lambda g: (-s * g,))


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss: Node) -> dict[int, Tensor | RowGrad]:
    """Reverse sweep from ``loss``; returns the gradient of each used leaf by node id.

    Only leaves that ``loss`` depends on get an entry; an unused leaf has
    none, and no vjp runs for a node with no leaf upstream (a lookup in a
    frozen table, a frozen layer fed only constants). A leaf read through
    :func:`take_rows` gets a :class:`RowGrad`, every other leaf a dense
    array. Multiple uses of a node accumulate by summation: its first
    gradient is kept as returned and each later one is added as
    ``acc + pg``, a new array, so no gradient is written in place and the
    returned gradients may share memory with one another.

    Each vjp is dropped once it has run, with the forward values it keeps
    (an LSTM fold's gate activations), and the sweep ends by releasing the
    tape (:meth:`Tape.release`), also when a vjp raises. A second sweep of
    the same tape is a :class:`ContractError`.
    """
    if loss.tape is not tape:
        raise ContractError("loss node does not belong to this tape")
    if tape.swept:
        raise ContractError("backward: this tape has been swept already")
    if loss.value.shape != ():
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.value.shape}")

    nodes, vjps = tape.nodes, tape._vjps
    try:
        grads: list[Tensor | RowGrad | None] = [None] * len(nodes)
        if loss.needs_grad:
            grads[loss.idx] = np.asarray(1.0)
        for idx in range(loss.idx, -1, -1):
            g = grads[idx]
            if g is None:
                continue
            vjp, vjps[idx] = vjps[idx], None
            if vjp is None:
                continue
            for parent_idx, pg in zip(nodes[idx].parents, vjp(g)):
                if pg is None or not nodes[parent_idx].needs_grad:
                    continue
                acc = grads[parent_idx]
                grads[parent_idx] = pg if acc is None else acc + pg
        return {i: grads[i] for i in tape._leaf_ids if grads[i] is not None}
    finally:
        tape.release()


def finite_difference_check(loss_fn: Callable[[Mapping[str, Tensor], bool], tuple],
                            params: Mapping[str, Tensor],
                            eps: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn(params, with_grads)`` must return ``(loss_value, grads_by_name)``
    when ``with_grads`` is true and ``(loss_value, None)`` otherwise, and must
    be deterministic in ``params``. The relative error for one coordinate is
    ``|a - f| / max(|a|, |f|, 1e-6)``; NaN on either side counts as failure
    (returned as inf).
    """
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    _, grads = loss_fn(params, True)
    worst = 0.0
    work = {name: np.array(v, dtype=np.float64, copy=True) for name, v in params.items()}
    for name in params:
        arr = work[name]
        analytic = grads[name]
        flat = arr.reshape(-1)
        a_flat = np.asarray(analytic).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up, _ = loss_fn(work, False)
            flat[j] = orig - eps
            down, _ = loss_fn(work, False)
            flat[j] = orig
            fd = (up - down) / (2.0 * eps)
            a = float(a_flat[j])
            if not (np.isfinite(fd) and np.isfinite(a)):
                return float("inf")
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            if err > worst:
                worst = err
    return worst
