"""Independent numpy forward pass used to check the library's outputs.

It follows only the documented model definition: LSTM gate pre-activations
``W @ [x; h_prev] + b`` stacked in block order ``cbar,o,i,f``, zero initial
states, heads reading ``concat(private, shared)`` of the final states.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_final(W, b, X):
    """Final hidden state of an LSTM folded over the rows of ``X``."""
    d = b.shape[0] // 4
    h = np.zeros(d)
    c = np.zeros(d)
    for x in X:
        a = W @ np.concatenate([x, h]) + b
        cbar, o, i, f = (np.tanh(a[:d]), _sigmoid(a[d:2 * d]),
                         _sigmoid(a[2 * d:3 * d]), _sigmoid(a[3 * d:]))
        c = cbar * i + c * f
        h = o * np.tanh(c)
    return h


def class_probs(tensors, task, tokens):
    """Class probabilities of a shared-private model for one sentence.

    ``tensors`` maps the checkpoint tensor names to arrays.
    """
    X = tensors["embeddings"][np.asarray(tokens)]
    s = lstm_final(tensors["shared.W"], tensors["shared.b"], X)
    h = lstm_final(tensors[f"private.{task}.W"], tensors[f"private.{task}.b"], X)
    logits = tensors[f"head.{task}.W"] @ np.concatenate([h, s]) + tensors[f"head.{task}.b"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


def error_rate(tensors, task, examples):
    """Share of ``examples`` whose argmax prediction differs from the label."""
    wrong = sum(int(np.argmax(class_probs(tensors, task, ex.tokens))) != ex.label
                for ex in examples)
    return wrong / len(examples)
