"""Span tracer for the benchmark's traced runs.

Hooks attach by public name to library functions and methods. Each call
becomes a span (name, start, end, parent) kept in memory, and counters are
kept at the same boundaries. For ``lstm_encode`` and ``take_rows`` the
vector-Jacobian product of the returned node is wrapped too, so the
backward sweep is split into those layers and the rest of ``backward``.

A hook whose target is missing, or whose signature differs from the one
listed in ``HOOKS``, is not installed: the layers that depend on it are
reported as unmeasured and the library runs untouched.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (hook key, module, attribute path, expected parameter names)
HOOKS = [
    ("data.generate_synthetic", "advmtl.data", "generate_synthetic", ("spec",)),
    ("data.encode_corpus", "advmtl.data", "encode_corpus", ("raw",)),
    ("data.next_labeled", "advmtl.data", "TaskBatcher.next_labeled", ("self", "task")),
    ("data.next_unlabeled", "advmtl.data", "TaskBatcher.next_unlabeled", ("self", "task")),
    ("autodiff.backward", "advmtl.autodiff", "backward", ("tape", "loss")),
    ("autodiff.take_rows", "advmtl.autodiff", "take_rows", ("a", "indices")),
    ("nn.lstm_encode", "advmtl.nn", "lstm_encode", ("xs", "W", "b", "h0", "c0")),
    ("nn.softmax_classify", "advmtl.nn", "softmax_classify", ("h", "W", "b")),
    ("losses.diff_loss", "advmtl.losses", "diff_loss", ("S", "H")),
    ("losses.adversarial_loss", "advmtl.losses", "adversarial_loss",
     ("shared_final", "task_id", "n_tasks", "disc_W", "disc_b", "spec")),
    ("models.discriminate", "advmtl.models", "discriminate", ("s", "W", "b")),
    ("models.bind", "advmtl.models", "ModelParams.bind", ("self", "tape")),
    ("models.copy", "advmtl.models", "ModelParams.copy", ("self",)),
    ("models.forward", "advmtl.models", "forward",
     ("tape", "bound", "config", "token_ids", "task", "rev_spec", "want_disc")),
    ("models.forward_shared", "advmtl.models", "forward_shared",
     ("tape", "bound", "config", "token_ids")),
    ("models.save_checkpoint", "advmtl.models", "save_checkpoint",
     ("path", "params", "config", "extra")),
    ("models.load_checkpoint", "advmtl.models", "load_checkpoint", ("path",)),
    ("train.train_multitask", "advmtl.train", "train_multitask",
     ("params", "config", "datasets", "cfg")),
    ("train.sgd_step", "advmtl.train", "sgd_step", ("params", "grads", "lr", "clip_norm")),
    ("train.evaluate", "advmtl.train", "evaluate", ("params", "config", "examples", "task")),
    ("train.shared_features", "advmtl.train", "shared_features",
     ("params", "config", "sentences")),
    ("train.fit_probe", "advmtl.train", "fit_probe",
     ("features", "labels", "n_classes", "iters", "lr")),
    ("train.probe_shared_purity", "advmtl.train", "probe_shared_purity",
     ("params", "config", "datasets", "iters", "lr")),
    ("train.shared_private_cosine", "advmtl.train", "shared_private_cosine",
     ("params", "config", "datasets", "split")),
]

# Hook keys whose vjp wrapping reads the tape's private vjp list.
VJP_HOOKS = {"nn.lstm_encode": "nn.lstm_bwd", "autodiff.take_rows": "autodiff.take_rows_bwd"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def signature_of(fn) -> tuple[str, ...]:
    return tuple(inspect.signature(fn).parameters)


def resolve(module: str, path: str):
    """(owner, attribute name, current value) of a dotted public name, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    fn = inspect.getattr_static(owner, attr, None)
    if fn is None or not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Spans and counters for one traced benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack: list[list] = []  # [span index, start, child seconds]
        self.totals: dict[str, float] = {}
        self.self_totals: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.unmeasured: dict[str, str] = {}
        self.overhead_s = 0.0
        self.enabled = True
        self._installed: list[tuple] = []
        self._bound = None
        self._rows: set[int] = set()
        self._rows_total = 0
        self._t0 = perf_counter()

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, t: float) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([nid, t - self._t0, None, parent])
        self._stack.append([len(self.spans) - 1, t, 0.0])

    def _close(self, t: float) -> None:
        idx, start, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = t - self._t0
        dur = t - start
        name = self.names[span[0]]
        self.totals[name] = self.totals.get(name, 0.0) + dur
        self.self_totals[name] = self.self_totals.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name, after=None):
        """Time ``fn`` as a span; ``name`` may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            tracer._open(name(args, kwargs) if callable(name) else name, t0)
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                tracer._close(t2)
            if after is not None:
                after(args, kwargs, result)
            tracer.overhead_s += (t1 - t0) + (perf_counter() - t2)
            return result

        return wrapper

    @contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording spans or counts."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def take_times(self) -> tuple[dict, dict, float]:
        """Return and reset (inclusive seconds, self seconds, tracer overhead seconds)."""
        out = (self.totals, self.self_totals, self.overhead_s)
        self.totals, self.self_totals, self.overhead_s = {}, {}, 0.0
        return out

    def take_counters(self) -> dict:
        """Return and reset the counters."""
        out, self.counters = self.counters, {}
        return out

    # -- hooks ------------------------------------------------------------

    def install(self) -> None:
        after = {"data.next_labeled": self._after_next_labeled,
                 "data.next_unlabeled": self._after_next_unlabeled,
                 "autodiff.take_rows": self._after_take_rows,
                 "nn.lstm_encode": self._after_lstm_encode,
                 "autodiff.backward": self._after_backward,
                 "models.bind": self._after_bind,
                 "models.save_checkpoint": self._after_save_checkpoint,
                 "train.sgd_step": self._after_sgd_step}
        for key, module, path, params in HOOKS:
            found = resolve(module, path)
            if found is None:
                self.unmeasured[key] = f"{module}.{path} not found"
                continue
            owner, attr, fn = found
            if isinstance(fn, (staticmethod, classmethod)):
                self.unmeasured[key] = f"{module}.{path} is no longer a plain function"
                continue
            sig = signature_of(fn)
            if sig != params:
                self.unmeasured[key] = f"{module}.{path} signature is now {sig}"
                continue
            setattr(owner, attr, self._wrap(fn, self._span_name(key), after.get(key)))
            self._installed.append((owner, attr, fn))
        if "nn.lstm_encode" not in self.unmeasured and "models.bind" in self.unmeasured:
            self.unmeasured["nn.lstm_split"] = "shared/private split needs the bind hook"

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _span_name(self, key: str):
        if key == "nn.lstm_encode":
            return self._lstm_name
        if key == "autodiff.take_rows":
            return "autodiff.take_rows_fwd"
        if key.startswith("data.next_"):
            return "data.batcher"
        return key

    def _lstm_kind(self, W) -> str:
        bound = self._bound
        if bound is None:
            return "lstm"
        return "lstm_shared" if W is bound.get("shared.W") else "lstm_private"

    def _lstm_name(self, args, kwargs) -> str:
        return f"nn.{self._lstm_kind(_arg(args, kwargs, 1, 'W'))}_fwd"

    def _wrap_vjp(self, node, key: str, name: str) -> None:
        vjps = getattr(getattr(node, "tape", None), "_vjps", None)
        idx = getattr(node, "idx", None)
        if not isinstance(vjps, list) or not isinstance(idx, int) or not callable(vjps[idx]):
            self.unmeasured.setdefault(VJP_HOOKS[key], "returned node has no wrappable vjp")
            return
        vjps[idx] = self._wrap(vjps[idx], name)

    # counters kept after a hooked call returns

    def _after_next_labeled(self, args, kwargs, result):
        self.count("data.batches")

    def _after_next_unlabeled(self, args, kwargs, result):
        self.count("data.batches", len(result))

    def _after_take_rows(self, args, kwargs, result):
        self._rows.update(int(i) for i in _arg(args, kwargs, 1, "indices"))
        self._rows_total = _arg(args, kwargs, 0, "a").value.shape[0]
        self._wrap_vjp(result, "autodiff.take_rows", "autodiff.take_rows_bwd")

    def _after_lstm_encode(self, args, kwargs, result):
        self.count("nn.lstm_timesteps", _arg(args, kwargs, 0, "xs").value.shape[0])
        if not (isinstance(result, tuple) and len(result) == 2):
            self.unmeasured.setdefault("nn.lstm_bwd", "lstm_encode no longer returns (h_T, all_h)")
            return
        kind = self._lstm_kind(_arg(args, kwargs, 1, "W"))
        self._wrap_vjp(result[1], "nn.lstm_encode", f"nn.{kind}_bwd")

    def _after_backward(self, args, kwargs, result):
        tape = _arg(args, kwargs, 0, "tape")
        self.count("steps")
        self.count("tape_nodes", len(tape))
        self.count("clamp_events", getattr(tape, "clamp_events", 0))
        grads = list(result.values())
        self.count("grad_bytes", sum(g.nbytes for g in grads))
        self.count("grad_zero_bytes",
                   sum((g.size - np.count_nonzero(g)) * g.itemsize for g in grads))
        if self._rows_total:
            self.count("rows_touched_frac", len(self._rows) / self._rows_total)

    def _after_bind(self, args, kwargs, result):
        self.count("models.bind_calls")
        self._bound = result
        self._rows = set()

    def _after_save_checkpoint(self, args, kwargs, result):
        self.counters["models.checkpoint_bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _after_sgd_step(self, args, kwargs, result):
        self.count("sgd_calls")
        self.count("sgd_bytes", sum(g.nbytes for g in _arg(args, kwargs, 1, "grads").values()))

    # -- output -----------------------------------------------------------

    def write(self, path: str, extra: dict) -> None:
        """Write every span, plus ``extra``, as gzipped JSON."""
        doc = dict(extra, names=self.names, spans=self.spans,
                   span_fields=["name", "start_s", "end_s", "parent"],
                   unmeasured=self.unmeasured)
        tmp = path + ".tmp"
        with gzip.open(tmp, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)
