"""Adversarial shared-private multi-task LSTM text classification.

A numpy-only library: dense float64 tensors on a reverse-mode tape,
LSTM encoders, a gradient-reversal adversarial task discriminator, an
orthogonality penalty between shared and private feature spaces, plus
data tooling, a training loop, and a synthetic conflicting-polarity
benchmark.
"""

from .autodiff import (GradReversalSpec, Node, Tape, Tensor, backward,
                       finite_difference_check, gradient_reversal, tensor)
from .data import (Batch, Example, SynthSpec, TaskDataset, Vocabulary,
                   generate_synthetic, load_corpus, partition, write_corpus)
from .losses import cross_entropy, diff_loss
from .models import (Encoding, ForwardResult, ModelConfig, ModelParams,
                     build_transfer, discriminate, dump_activations, encode,
                     forward, forward_batch, init_model, load_checkpoint,
                     save_checkpoint)
from .nn import lstm_encode, lstm_states, softmax_classify
from .train import (TrainConfig, TrainHistory, evaluate, grid_search, sgd_step,
                    train_multitask, train_transfer)

__version__ = "0.1.0"
