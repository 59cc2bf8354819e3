"""Reuse a trained shared encoder on a held-out task, frozen.

Trains an adversarial multi-task model on three source tasks, then
transfers the frozen shared LSTM to the fourth task two ways:
single-channel (classifier over the frozen encoder alone) and
bi-channel (frozen encoder next to a fresh trainable one).

Run:  python3 demos/04_transfer.py      (~2 minutes)
"""

import numpy as np

from advmtl import data as D
from advmtl import models as M
from advmtl import train as T

spec = D.SynthSpec(tasks=4, sentences_per_task=700, seed=9, min_margin=2,
                   min_len=5, max_len=8, shared_rate=0.3, own_rate=0.35,
                   contaminant_rate=0.12, conflict_fraction=1.0, domain_bias=8.0)
raw, _ = D.generate_synthetic(spec)
corpus, vocab = D.encode_corpus(raw)
names = sorted(corpus)
target, sources = names[0], names[1:]
print("source tasks:", sources, "-> target:", target)

d = 16
emb = np.random.default_rng(1234).uniform(-0.1, 0.1, (len(vocab), d))
for tok, vec in D.synth_embedding_vectors(vocab.id_to_token[2:], d, seed=1234).items():
    emb[vocab.token_to_id[tok]] = vec

source_cfg = M.ModelConfig(scheme="asp", task_names=tuple(sources),
                           classes=tuple(corpus[n].n_classes for n in sources),
                           hidden_size=d, embed_size=d, vocab_size=len(vocab))
source_params = M.init_model(source_cfg, seed=21)
source_params.tensors["embeddings"][...] = emb
train_cfg = T.TrainConfig(learning_rate=0.15, adv_weight=0.1, max_epochs=12,
                          patience=4, seed=21)
source_model, _ = T.train_multitask(source_params, source_cfg,
                                    {n: corpus[n] for n in sources}, train_cfg)
print("source model trained; shared layer is now frozen knowledge")

transfer_cfg = T.TrainConfig(learning_rate=0.15, max_epochs=12, patience=4, seed=22)
for mode in ("sc", "bc"):
    trained, tconfig, history, err = T.train_transfer(
        source_model, corpus[target], mode, transfer_cfg,
        vocab_size=len(vocab), model_seed=22)
    same = all(trained.tensors[n].tobytes() == source_model.tensors[n].tobytes()
               for n in ("shared.W", "shared.b"))
    print(f"{mode}: target test error {err:.3f} "
          f"(frozen layer bitwise unchanged: {same})")
