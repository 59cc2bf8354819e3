"""Train a single-task LSTM classifier end to end on synthetic reviews.

Run:  python3 demos/02_lstm_sentiment.py
"""

import numpy as np

from advmtl import data as D
from advmtl import models as M
from advmtl import train as T

# A 2-task synthetic corpus; we train on just the first task here.
spec = D.SynthSpec(tasks=2, sentences_per_task=600, seed=3, min_margin=2,
                   domain_bias=4.0)
raw, provenance = D.generate_synthetic(spec)
corpus, vocab = D.encode_corpus(raw)
name = sorted(corpus)[0]
task = corpus[name]
print(f"task {name}: {task.counts()}, vocab {len(vocab)}")

# Pretrained-style vectors for the synthetic vocabulary (the uniform
# [-0.1, 0.1] fallback is kept for padding/unknown rows).
d = 12
emb = np.random.default_rng(0).uniform(-0.1, 0.1, (len(vocab), d))
for tok, vec in D.synth_embedding_vectors(vocab.id_to_token[2:], d, seed=0).items():
    emb[vocab.token_to_id[tok]] = vec

config = M.ModelConfig(scheme="fs", task_names=(name,), classes=(2,),
                       hidden_size=d, embed_size=d, vocab_size=len(vocab))
params = M.init_model(config, seed=7)
params.tensors["embeddings"][...] = emb

cfg = T.TrainConfig(learning_rate=0.2, max_epochs=15, patience=4, seed=7)
best, history = T.train_multitask(params, config, {name: task}, cfg)
for epoch in history.epochs():
    print(f"epoch {epoch}: dev error {history.mean_dev_error(epoch):.3f}")
print("best epoch:", history.best_epoch)
print("test error:", T.evaluate(best, config, task.test, 0))

# Watch the running prediction evolve over two sentences, dumped as one batch.
examples = task.dev[:2]
traces = M.dump_activations(best, config, [ex.tokens for ex in examples], task=0)
for ex, records in zip(examples, traces):
    print("\nper-timestep prediction trace:")
    for rec in records:
        tok = vocab.id_to_token[rec["token_id"]]
        print(f"  t={rec['t']:2d} {tok:10s} p(positive)={rec['class_probs'][1]:.3f}")
    print("true label:", ex.label)
