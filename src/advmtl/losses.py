"""Objective terms: cross-entropy and the orthogonality (diff) loss.

The training step (``train._combine``) weights and sums these terms; the
adversarial term is the cross-entropy of the discriminator's output
behind a gradient-reversal node.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Node
from .errors import ConfigError, ShapeError


def cross_entropy(probs: Node, labels) -> Node:
    """-log p[label] of one sample, or its mean over the rows of a batch, as one tape node.

    ``probs`` is a probability vector with a scalar label, or a ``[B, C]``
    matrix with one label per row. The value is ``-(1/rows)`` times the sum
    of a ``[B, C]`` array that holds ``log p[r, y_r]`` at the label entries
    and zero elsewhere; the vjp of ``g`` is ``(g * -(1/rows)) / p[r, y_r]``
    at the label entries. Both are exact while every ``p[r, y_r]`` is a
    normal float.
    """
    p = probs.value
    y = np.asarray(labels, dtype=np.intp)
    if p.ndim not in (1, 2) or y.shape != p.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: labels of shape {y.shape} do not match probs of shape {p.shape}")
    if np.any(y < 0) or np.any(y >= p.shape[-1]):
        raise ConfigError(
            f"cross_entropy: label {labels} out of range for {p.shape[-1]} classes")
    at = (np.arange(len(y)), y) if p.ndim == 2 else y
    c = -1.0 / y.size  # y.size is the row count, 1 for one sample
    terms = np.zeros_like(p)  # the full array: a sum of only the B label terms rounds otherwise
    terms[at] = np.log(p[at])

    def vjp(g):
        gc = g * c
        out = np.full(p.shape, gc * 0.0)  # zeros signed as gc, like the gc * 0 / p of a one-hot
        out[at] = gc / p[at]
        return (out,)

    return probs.tape.record(np.asarray(terms.sum() * c), (probs,), vjp)


def diff_loss(S: Node, H: Node) -> Node:
    """Squared Frobenius norm of S^T H (orthogonality penalty), as one tape node.

    ``S`` and ``H`` are ``[T, d]`` matrices, or ``[B, T, d]`` batches of
    them, for which the result is the sum over the batch of ||S_b^T H_b||^2.
    """
    Sv, Hv = S.value, H.value
    if Sv.ndim not in (2, 3) or Hv.ndim != Sv.ndim:
        raise ShapeError(
            f"diff_loss: expected matrices or batches of them, got {Sv.shape} and {Hv.shape}")
    if Sv.shape[-1] != Hv.shape[-1]:
        raise ShapeError(
            f"diff_loss: column counts of {Sv.shape} and {Hv.shape} must match")
    if Sv.shape[:-1] != Hv.shape[:-1]:
        raise ShapeError(
            f"diff_loss: row counts of {Sv.shape} and {Hv.shape} must match")
    m = np.swapaxes(Sv, -1, -2) @ Hv

    def vjp(g):
        gm = 2.0 * g * m
        return (Hv @ np.swapaxes(gm, -1, -2), Sv @ gm)

    return S.tape.record(np.asarray((m * m).sum()), (S, H), vjp)
