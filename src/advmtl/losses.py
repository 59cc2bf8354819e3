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


def onehot(index: int, size: int) -> Tensor:
    if not 0 <= index < size:
        raise ConfigError(f"one-hot index {index} out of range for size {size}")
    v = np.zeros(size)
    v[index] = 1.0
    return v


def cross_entropy(probs: Node, target) -> Node:
    """-sum(y * log(p)) for one sample; log is clamped at 1e-12."""
    t = target if isinstance(target, Node) else probs.tape.constant(target)
    if t.value.shape != probs.value.shape:
        raise ShapeError(
            f"cross_entropy: target shape {t.value.shape} does not match "
            f"probs shape {probs.value.shape}")
    return ad.scale(ad.sum_all(ad.mul(t, ad.log(probs))), -1.0)


def diff_loss(S: Node, H: Node) -> Node:
    """Squared Frobenius norm of S^T H (orthogonality penalty)."""
    if S.value.ndim != 2 or H.value.ndim != 2:
        raise ShapeError(
            f"diff_loss: expected matrices, got {S.value.shape} and {H.value.shape}")
    if S.value.shape[1] != H.value.shape[1]:
        raise ShapeError(
            f"diff_loss: column counts of {S.value.shape} and {H.value.shape} must match")
    if S.value.shape[0] != H.value.shape[0]:
        raise ShapeError(
            f"diff_loss: row counts of {S.value.shape} and {H.value.shape} must match")
    m = ad.matmul(ad.transpose(S), H)
    return ad.sum_all(ad.mul(m, m))
