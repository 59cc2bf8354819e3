"""Tour of the tape ops a training step records: an embedding lookup, the
classifier, the cross-entropy, gradient reversal and the backward sweep.

Run:  python3 demos/01_tape_basics.py
"""

import numpy as np

from advmtl import autodiff as ad
from advmtl import losses as L
from advmtl import nn
from advmtl.autodiff import GradReversalSpec, Tape

rng = np.random.default_rng(0)
params = {"E": rng.uniform(-1, 1, (5, 3)),  # an embedding table: 5 words, 3 dimensions
          "W": rng.uniform(-1, 1, (2, 3)), "b": np.zeros(2)}  # a 2-class head
ids, labels = [1, 3, 1], [0, 1, 0]  # one word and one label per row; word 1 comes twice


def loss_fn(p, with_grads, reversal=None):
    # Every computation lives on a single-use tape. Leaves are the tensors
    # you want gradients for; constants are plain inputs.
    t = Tape()
    E, W, b = (t.leaf(p[k]) for k in ("E", "W", "b"))
    x = ad.take_rows(E, ids)  # the table's rows, one per word
    if reversal is not None:
        x = ad.gradient_reversal(x, reversal)
    probs = nn.softmax_classify(x, W, b)  # softmax(x W^T + b), row by row
    loss = L.cross_entropy(probs, labels)  # the mean of -log p[label] over the rows
    if not with_grads:
        return float(loss.value), None
    g = ad.backward(t, loss)  # gradients by leaf id; the sweep releases the tape
    return float(loss.value), {k: g[n.idx] for k, n in (("E", E), ("W", W), ("b", b))}


loss, grads = loss_fn(params, True)
print("loss:", loss)
print("dL/dW:\n", grads["W"])

# The table's gradient is row-sparse: a row for each distinct word looked
# up, with word 1's two rows summed into one. np.asarray gives it dense.
dE = grads["E"]
print("dL/dE is a", type(dE).__name__, "with rows for words", dE.ids, ":\n", dE.rows)
print("dense:\n", np.asarray(dE))

# The analytic gradients agree with central finite differences.
err = ad.finite_difference_check(loss_fn, params, eps=1e-5)
print("finite-difference max relative error:", err)

# Gradient reversal: identity forward, -scale backward. This single node
# is what turns a discriminator's minimization into the encoder's
# maximization during adversarial training: the head below it learns as
# before, while everything above it gets the gradient reversed.
spec = GradReversalSpec(scale=0.05)
rev_loss, rev = loss_fn(params, True, spec)
print("\nwith reversal, the loss is unchanged:", rev_loss == loss)
print("the head's gradient is unchanged:", rev["W"].tobytes() == grads["W"].tobytes())
print("the table's gradient is -0.05 times the plain one:",
      np.allclose(np.asarray(rev["E"]), -0.05 * np.asarray(dE), rtol=1e-12, atol=0))
# Finite differences see only the forward function, so they reject it.
err = ad.finite_difference_check(lambda p, with_grads: loss_fn(p, with_grads, spec), params)
print("finite-difference error of the reversed gradient:", err)
