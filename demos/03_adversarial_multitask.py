"""Shared-private vs adversarial shared-private on conflicting tasks.

The corpus gives every task its own polar vocabulary, with half of it
reused by a neighboring task at OPPOSITE polarity, plus domain-flavored
neutral tokens. A plain shared-private model lets task identity leak
into the shared space; the adversarial model trains the shared encoder
against a task discriminator (through gradient reversal) and adds an
orthogonality penalty, leaving the shared space task-invariant.

Run:  python3 demos/03_adversarial_multitask.py      (~2 minutes)
"""

import numpy as np

from advmtl import data as D
from advmtl import models as M
from advmtl import train as T

spec = D.SynthSpec(tasks=4, sentences_per_task=800, seed=5, min_margin=2,
                   min_len=5, max_len=8, shared_rate=0.3, own_rate=0.35,
                   contaminant_rate=0.12, conflict_fraction=1.0, domain_bias=8.0)
raw, _ = D.generate_synthetic(spec)
corpus, vocab = D.encode_corpus(raw)
names = tuple(sorted(corpus))
classes = tuple(corpus[n].n_classes for n in names)
print("tasks:", names, "vocab:", len(vocab))

d = 16
emb = np.random.default_rng(1234).uniform(-0.1, 0.1, (len(vocab), d))
for tok, vec in D.synth_embedding_vectors(vocab.id_to_token[2:], d, seed=1234).items():
    emb[vocab.token_to_id[tok]] = vec


def run(scheme):
    config = M.ModelConfig(scheme=scheme, task_names=names, classes=classes,
                           hidden_size=d, embed_size=d, vocab_size=len(vocab))
    params = M.init_model(config, seed=11)
    params.tensors["embeddings"][...] = emb
    cfg = T.TrainConfig(learning_rate=0.15, adv_weight=0.1, diff_weight=0.01,
                        max_epochs=15, patience=4, batch_size=16, seed=11)
    best, history = T.train_multitask(params, config, corpus, cfg)
    test = np.mean([T.evaluate(best, config, corpus[n].test, k)
                    for k, n in enumerate(names)])
    probe = T.probe_shared_purity(best, config, corpus)
    cosine = T.shared_private_cosine(best, config, corpus)
    return test, probe, cosine


print("\nscheme  test-error  probe-accuracy  |cos(shared,private)|")
for scheme in ("sp", "asp"):
    test, probe, cosine = run(scheme)
    print(f"{scheme:4s}    {test:.3f}       {probe:.3f}           {cosine:.3f}")
print("\nchance level for the probe is 1/4 = 0.25; a lower probe accuracy")
print("means the frozen shared features reveal less about task identity.")
