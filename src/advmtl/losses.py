"""Objective terms: cross-entropy and the orthogonality (diff) loss.

The training step (``train._combine``) weights and sums these terms; the
adversarial term is the cross-entropy of the discriminator's output
behind a gradient-reversal node.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tensor
from .errors import ConfigError, ShapeError


def onehot(index, size: int) -> Tensor:
    """One-hot vector of ``index``, or one row per entry of a sequence of indices."""
    idx = np.asarray(index, dtype=np.intp)
    if np.any(idx < 0) or np.any(idx >= size):
        raise ConfigError(f"one-hot index {index} out of range for size {size}")
    return np.eye(size)[idx]


def cross_entropy(probs: Node, target) -> Node:
    """-sum(y * log(p)) of one sample, or its mean over the rows of a batch.

    The log is clamped at 1e-12.
    """
    t = target if isinstance(target, Node) else probs.tape.constant(target)
    if t.value.shape != probs.value.shape:
        raise ShapeError(
            f"cross_entropy: target shape {t.value.shape} does not match "
            f"probs shape {probs.value.shape}")
    rows = probs.value.shape[0] if probs.value.ndim == 2 else 1
    return ad.scale(ad.sum_all(ad.mul(t, ad.log(probs))), -1.0 / rows)


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
