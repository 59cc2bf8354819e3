"""Command-line surface: train, eval, transfer, synth, dump-activations.

Configuration comes from four layers, later ones winning: built-in
defaults, a flat ``key = value`` config file, ``ADVMTL_<KEY>`` environment
variables, command-line flags. Each setting's text, from any of these,
from a checkpoint's ``extra`` or from a synth spec, becomes its value in
one place, :func:`_typed`. A command returns a :class:`Run`: the
settings it read, its inputs, the files it wrote (each written through
the record) and its exit code. ``main`` times the call and writes the
``manifest.json`` of that record: the settings, input content hashes,
output paths and the numeric environment. ``train`` also writes a
``config.resolved.cfg`` that reproduces the run when passed back through
``--config``.

Exit codes: 0 ok, 2 missing/unreadable input (and any other package
error), 3 config validation, 4 checkpoint/data incompatibility,
5 numeric divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import platform
import sys
import time

import numpy as np

from . import data as D
from . import models as M
from . import processes
from . import train as T
from .errors import AdvMtlError, ConfigError, DataFormatError, InputError, NumericError

ENV_PREFIX = "ADVMTL_"

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_COMPAT = 4
EXIT_NUMERIC = 5


class CompatibilityError(AdvMtlError):
    """Checkpoint and data disagree (tasks, classes, vocabulary)."""


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: '{text}'")


def _at_least(low: int):
    """The caster of an integer setting that must be ``low`` or more."""
    def cast(text: str) -> int:
        if int(text) < low:
            raise ConfigError(f"must be >= {low}, got {text}")
        return int(text)
    return cast


# key -> (type caster, default, TrainConfig field it sets or None, flag help):
# the one declaration of each setting
CONFIG_KEYS: dict[str, tuple] = {
    "scheme": (str, None, None, f"model scheme, one of {', '.join(M.SCHEMES)}"),
    "seed": (_at_least(0), 0, "seed", "random seed (on reload, the checkpoint's own seed wins)"),
    "hidden_size": (_at_least(1), 16, None, "LSTM hidden size"),
    "embed_size": (_at_least(1), 16, None, "word embedding size"),
    "learning_rate": (float, 0.01, "learning_rate", "SGD learning rate"),
    "lambda": (float, None, "adv_weight", "adversarial weight (asp only, default 0.05)"),
    "gamma": (float, None, "diff_weight", "orthogonality weight (asp only, default 0.01)"),
    "batch_size": (int, 16, "batch_size", "sentences per batch"),
    "max_epochs": (int, 50, "max_epochs", "epoch limit"),
    "patience": (int, 5, "patience", "epochs without dev improvement before stopping"),
    "clip_norm": (float, 5.0, "clip_norm", "global gradient-norm clip"),
    "alpha": (str, None, None, "comma-separated task weights"),
    "unlabeled": (_bool, False, "use_unlabeled", "interleave unlabeled batches (asp only)"),
    "unlabeled_ratio": (float, 1.0, "unlabeled_ratio", "unlabeled batches per labeled batch"),
    "diff_mode": (str, "sentence", "diff_mode",
                  "orthogonality penalty per 'sentence' or per 'batch'"),
    "alternating": (_bool, False, "alternating", "separate discriminator and model updates"),
    "embeddings": (str, None, None, "pretrained vectors file"),
    "freeze_embeddings": (_bool, False, None, "keep the embedding table fixed"),
    "swap_dev_test": (_bool, False, None, "partition labeled.tsv 70/10/20, not 70/20/10"),
    "max_len": (_at_least(1), D.DEFAULT_MAX_LEN, None, "keep the first N tokens of each sentence"),
    "grid": (str, None, None, "grid spec 'learning_rate=0.1,0.01;lambda=0.01,0.1'"),
    "jobs": (_at_least(1), 1, None, "parallel grid cells"),
}

GRID_KEYS = ("learning_rate", "lambda", "gamma")  # the settings --grid sweeps
# settings only the asp scheme reads
ASP_ONLY_KEYS = ("lambda", "gamma", "unlabeled", "unlabeled_ratio", "diff_mode", "alternating")

# The settings ``transfer`` reads: its five flags, then three it takes only
# from a config file or the environment.
TRANSFER_KEYS = ("seed", "learning_rate", "max_epochs", "patience", "batch_size",
                 "clip_norm", "swap_dev_test", "max_len")
# The settings that rebuild a model's corpus: ``train`` stores them in the
# checkpoint's ``extra``, ``transfer`` in each of its checkpoints', and
# ``eval``/``dump-activations`` read only these.
RELOAD_KEYS = ("seed", "swap_dev_test", "max_len")


def _typed(key: str, value, source: str, cast=None, error=ConfigError):
    """``key``'s caster (``CONFIG_KEYS``' unless given) applied to ``value``'s text.

    The one conversion of a setting from any source; a failure raises
    ``error`` naming the source and the key.
    """
    try:
        return (cast or CONFIG_KEYS[key][0])(str(value))
    except (ValueError, ConfigError) as exc:
        raise error(f"{key} from {source}: {exc}") from None


def parse_flat_config(path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment.

    A line without ``=`` or that is not UTF-8 raises :class:`ConfigError`.
    """
    out: dict[str, str] = {}
    for ln, line in D.text_lines(path, ConfigError):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(config_path, flag_values: dict[str, object],
                   environ=None, keys=CONFIG_KEYS) -> dict[str, object]:
    """Merge defaults < file < environment < flags for ``keys``, each through :func:`_typed`.

    The config file (None for none) may hold any ``CONFIG_KEYS`` entry;
    those outside ``keys`` are ignored.
    """
    file_values = parse_flat_config(config_path) if config_path else {}
    environ = os.environ if environ is None else environ
    resolved = {}
    for key in keys:
        env_name = ENV_PREFIX + key.upper()
        resolved[key] = CONFIG_KEYS[key][1]
        for source, text in ((f"config {config_path}", file_values.get(key)),
                             (env_name, environ.get(env_name)),
                             ("--" + key.replace("_", "-"), flag_values.get(key))):
            if text is not None:
                resolved[key] = _typed(key, text, source)
    unknown = set(file_values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key '{sorted(unknown)[0]}'")
    return resolved


def validate_train_config(cfg: dict) -> tuple[T.TrainConfig, dict[str, list]]:
    """Check every setting that needs no corpus.

    Returns the ``TrainConfig`` they declare and the parsed ``--grid`` ({} without one).

    Only the number of ``alpha`` weights waits for the corpus.
    """
    scheme = cfg.get("scheme")
    if scheme not in M.SCHEMES:
        raise ConfigError(f"scheme: must be one of {M.SCHEMES}, got {scheme!r}")
    grid = _parse_grid(cfg["grid"]) if cfg["grid"] else {}
    if scheme != "asp":
        for key in ASP_ONLY_KEYS:  # unset (None), off (false, 0) or the default is no setting
            if cfg[key] not in (None, False, CONFIG_KEYS[key][1]) or CONFIG_KEYS[key][2] in grid:
                raise ConfigError(
                    f"{key}: only meaningful for the adversarial scheme, not '{scheme}'")
    if cfg["lambda"] is None:
        cfg["lambda"] = 0.05 if scheme == "asp" else 0.0
    if cfg["gamma"] is None:
        cfg["gamma"] = 0.01 if scheme == "asp" else 0.0
    # every check that needs no corpus runs before the corpus loads
    base = _train_config(cfg, _parse_alpha(cfg["alpha"]))
    for combo in itertools.product(*grid.values()):
        try:
            dataclasses.replace(base, **dict(zip(grid, combo)))
        except ConfigError as exc:
            raise ConfigError(f"grid: {exc}") from None
    return base, grid


def _train_config(cfg: dict, alpha=None) -> T.TrainConfig:
    """The ``TrainConfig`` the settings in ``cfg`` declare; other fields keep their defaults."""
    return T.TrainConfig(alpha=alpha, **{CONFIG_KEYS[k][2]: v for k, v in cfg.items()
                                         if CONFIG_KEYS[k][2] is not None})


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_tree(root) -> str:
    """Content hash of a directory: sorted relative paths plus file bytes.

    A ``manifest.json`` records a run (its duration varies), not content: it is skipped.
    """
    h = hashlib.sha256()
    if os.path.isfile(root):
        return sha256_file(root)
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname == "manifest.json":
                continue
            full = os.path.join(dirpath, fname)
            h.update(os.path.relpath(full, root).encode("utf-8"))
            h.update(bytes.fromhex(sha256_file(full)))
    return h.hexdigest()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_environment() -> dict:
    """Versions, BLAS settings and CPUs that a run's numbers or speed depend on.

    At d = 200 the BLAS thread count changes the last bits of a trained
    model, so each thread variable is recorded as set, or null when unset.
    ``cpus`` is the number of CPUs this process may run on
    (:func:`processes.allowed_cpus`): with the thread variables it decides whether
    a step's two LSTM folds run at once, which changes the speed but no
    number.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "cpus": processes.allowed_cpus()}


@dataclasses.dataclass
class Run:
    """What one command read and wrote, and its exit code.

    Every output file goes through :meth:`path` (or :meth:`write`), which
    creates its directory and lists it, so ``outputs`` is the files the
    command wrote. ``config`` is the settings it read and ``inputs`` the
    paths it read. With ``out`` None nothing is written, no manifest either.
    """
    out: str | None
    config: dict
    inputs: list
    outputs: list = dataclasses.field(default_factory=list)
    code: int = EXIT_OK

    def path(self, name: str) -> str:
        path = os.path.join(self.out, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.outputs.append(path)
        return path

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def write_manifest(run: Run, command: str, started: float) -> None:
    manifest = {
        "command": command,
        "environment": run_environment(),
        "config": run.config,
        "seed": run.config.get("seed"),
        "input_hashes": {path: sha256_tree(path) for path in run.inputs
                         if path and os.path.exists(path)},
        "outputs": sorted(run.outputs),
        "duration_sec": round(time.time() - started, 3),
    }
    with open(os.path.join(run.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def resolved_config(cfg: dict) -> str:
    """The ``key = value`` lines that replay ``cfg`` through ``--config``."""
    lines = []
    for key, value in cfg.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        if value is not None:
            lines.append(f"{key} = {value}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# shared command plumbing
# ---------------------------------------------------------------------------

def _require_file(path, what: str) -> None:
    if path is None:
        raise ConfigError(f"{what}: required")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what}: '{path}' does not exist")


def _load_datasets(cfg: dict, data_root):
    _require_file(data_root, "--data")
    datasets, vocab = D.load_corpus(data_root, seed=cfg["seed"],
                                    swap_dev_test=cfg["swap_dev_test"],
                                    max_len=cfg["max_len"])
    return datasets, vocab


def _nonempty_split(ds: D.TaskDataset, split: str):
    examples = ds.split(split)
    if not examples:
        raise InputError(f"task '{ds.name}': empty {split} split")
    return examples


def _model_config(cfg: dict, datasets, vocab) -> M.ModelConfig:
    names = tuple(sorted(datasets))
    return M.ModelConfig(scheme=cfg["scheme"], task_names=names,
                         classes=tuple(datasets[n].n_classes for n in names),
                         hidden_size=cfg["hidden_size"],
                         embed_size=cfg["embed_size"], vocab_size=len(vocab))


def _parse_alpha(text: str | None):
    """Task weights by task index from a comma-separated list, or None."""
    if text is None:
        return None
    return {k: _typed(f"weight {k}", p, "alpha", float)
            for k, p in enumerate(_comma_list("alpha", text))}


def _comma_list(name: str, text: str) -> list[str]:
    """The entries of a comma-separated list; an empty one raises a ConfigError naming ``name``."""
    if not all(entry.strip() for entry in text.split(",")):
        raise ConfigError(f"{name}: empty entry in '{text}'")
    return text.split(",")


def _parse_grid(text: str) -> dict[str, list]:
    """The values of each swept setting, keyed by its ``TrainConfig`` field."""
    grid = {}
    for clause in text.split(";"):
        if not clause.strip():
            continue
        if "=" not in clause:
            raise ConfigError(f"grid: expected 'key=v1,v2', got '{clause}'")
        key, values = clause.split("=", 1)
        key = key.strip()
        if key not in GRID_KEYS:
            raise ConfigError(f"grid: unsupported key '{key}'")
        field = CONFIG_KEYS[key][2]
        if field in grid:
            raise ConfigError(f"grid: key '{key}' given twice")
        grid[field] = [_typed(key, v, "grid") for v in _comma_list(f"grid key '{key}'", values)]
    if not grid:
        raise ConfigError("grid: empty specification")
    return grid


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _csv(rows) -> str:
    """``rows`` as CSV text; a field holding a comma, a quote or a line break is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _error_table(rows: list) -> str:
    """Append the AVG row to ``rows``; return the ``task,error`` CSV."""
    rows.append(("AVG", float(np.mean([e for _, e in rows]))))
    return _csv([("task", "error"), *rows])


def cmd_train(args) -> Run:
    cfg = resolve_config(args.config, vars(args))
    train_cfg, grid = validate_train_config(cfg)
    datasets, vocab = _load_datasets(cfg, args.data)
    for name, ds in datasets.items():
        c = ds.counts()
        print(f"task {name}: train={c['train']} dev={c['dev']} "
              f"test={c['test']} unlabeled={c['unlabeled']}")
    config = _model_config(cfg, datasets, vocab)
    if train_cfg.alpha is not None and len(train_cfg.alpha) != config.n_tasks:
        raise ConfigError(f"alpha: expected {config.n_tasks} weights, got {len(train_cfg.alpha)}")
    params = M.init_model(config, seed=cfg["seed"],
                          freeze_embeddings=cfg["freeze_embeddings"])
    if cfg["embeddings"]:
        _require_file(cfg["embeddings"], "embeddings")
        loaded = D.load_embeddings_text(cfg["embeddings"], vocab.token_to_id,
                                        params.tensors["embeddings"])
        print(f"embeddings: loaded {loaded} of {len(vocab)} rows")
    run = Run(args.out, cfg, [args.data, args.config, cfg["embeddings"]])

    if grid:
        result = T.grid_search(params, config, datasets, grid, train_cfg, jobs=cfg["jobs"])
        best, history = result.best_params, result.best_history
        run.write("grid.csv", _csv([("cell", "mean_dev_error", *result.cells[0][0])]
                                   + [(i, err, *map(repr, cell.values()))
                                      for i, (cell, err) in enumerate(result.cells)]))
        print(f"grid: best cell {result.best_index} -> "
              f"{result.cells[result.best_index][0]}")
    else:
        best, history = T.train_multitask(params, config, datasets, train_cfg)

    M.save_checkpoint(run.path("checkpoint.bin"), best, config,
                      extra={"vocab_sha256": vocab.sha256(),
                             **{key: cfg[key] for key in RELOAD_KEYS}})
    history.to_csv(run.path("history.csv"))
    run.write("config.resolved.cfg", resolved_config(cfg))
    if history.best_epoch >= 0:
        print(f"best epoch {history.best_epoch}: "
              f"mean dev error {history.mean_dev_error(history.best_epoch):.4f}")
    if history.diverged:
        print(f"training diverged at {history.divergence}; "
              "best checkpoint before divergence retained", file=sys.stderr)
        run.code = EXIT_NUMERIC
    return run


def _check_compat(config: M.ModelConfig, datasets, vocab, extra: dict) -> None:
    for k, name in enumerate(config.task_names):
        if name not in datasets:
            raise CompatibilityError(f"checkpoint task '{name}' missing from data")
        if datasets[name].n_classes != config.classes[k]:
            raise CompatibilityError(
                f"task '{name}': checkpoint expects {config.classes[k]} classes, "
                f"data has {datasets[name].n_classes}")
    want = extra.get("vocab_sha256")
    if want and want != vocab.sha256():
        raise CompatibilityError(
            "vocabulary mismatch: data root does not reproduce the checkpoint's "
            "training vocabulary")


def _reload(args):
    """Checkpoint, corpus and run record for eval and dump-activations.

    They read only the ``RELOAD_KEYS`` settings, and the values stored in
    the checkpoint win, so the corpus is rebuilt with the splits and
    vocabulary the model was trained on; resolved values are only the
    fallback for older checkpoints.
    """
    _require_file(args.checkpoint, "--checkpoint")
    params, config, extra = M.load_checkpoint(args.checkpoint)
    cfg = resolve_config(None, vars(args), keys=RELOAD_KEYS)
    for key in RELOAD_KEYS:
        if key in extra:
            cfg[key] = _typed(key, extra[key], f"checkpoint {args.checkpoint}",
                              error=DataFormatError)
    datasets, vocab = _load_datasets(cfg, args.data)
    _check_compat(config, datasets, vocab, extra)
    return params, config, datasets, vocab, Run(args.out, cfg, [args.checkpoint, args.data])


def cmd_eval(args) -> Run:
    params, config, datasets, _, run = _reload(args)
    rows = [(name, T.evaluate(params, config, _nonempty_split(datasets[name], args.split), k))
            for k, name in enumerate(config.task_names)]
    table = _error_table(rows)
    as_json = json.dumps(dict(rows), indent=2, sort_keys=True) + "\n"
    # without --out, stdout is the only output, so it takes the asked format
    print(as_json if args.format == "json" and not args.out else table, end="")
    if args.out:
        run.write(f"eval_{args.split}.csv", table)
        if args.format == "json":
            run.write(f"eval_{args.split}.json", as_json)
    return run


def _shared_sha256(params: M.ModelParams) -> str:
    """Hash of the shared layer's weights, which a transfer must leave unchanged."""
    t = params.tensors
    return hashlib.sha256(t["shared.W"].tobytes() + t["shared.b"].tobytes()).hexdigest()


def cmd_transfer(args) -> Run:
    if bool(args.target) == args.all_targets:
        raise ConfigError("transfer: give one of --target and --all-targets")
    _require_file(args.checkpoint, "--checkpoint")
    source_params, source_config, _ = M.load_checkpoint(args.checkpoint)
    cfg = resolve_config(args.config, vars(args), keys=TRANSFER_KEYS)
    train_cfg = _train_config(cfg)
    datasets, vocab = _load_datasets(cfg, args.data)
    if args.target:
        if args.target not in datasets:
            raise CompatibilityError(f"target task '{args.target}' not in data")
        targets = [args.target]
    else:
        targets = sorted(datasets)
    for target in targets:  # each target is scored on its test split once trained
        _nonempty_split(datasets[target], "test")
    run = Run(args.out, cfg, [args.data, args.checkpoint])
    frozen_before = _shared_sha256(source_params)
    rows = []
    for target in targets:
        trained, tconfig, history, err = T.train_transfer(
            source_params, datasets[target], args.mode, train_cfg,
            vocab_size=len(vocab), model_seed=cfg["seed"])
        rows.append((target, err))
        if _shared_sha256(trained) != frozen_before:
            raise AdvMtlError("frozen shared layer changed during transfer")
        M.save_checkpoint(run.path(f"transfer_{args.mode}_{target}.bin"), trained, tconfig,
                          extra={"vocab_sha256": vocab.sha256(),
                                 "transfer_mode": args.mode,
                                 "source_scheme": source_config.scheme,
                                 "frozen_sha256": frozen_before,
                                 "head_input_size": tconfig.head_input_size,
                                 **{key: cfg[key] for key in RELOAD_KEYS}})
    table = _error_table(rows)
    print(table, end="")
    run.write(f"transfer_{args.mode}.csv", table)
    return run


SYNTH_KEYS = {**{f.name: type(f.default) for f in dataclasses.fields(D.SynthSpec)},
              "embedding_dim": _at_least(0), "embedding_scale": float}  # dim 0: no vectors


def cmd_synth(args) -> Run:
    _require_file(args.spec, "--spec")
    raw_kv = parse_flat_config(args.spec)
    unknown = set(raw_kv) - set(SYNTH_KEYS)
    if unknown:
        raise ConfigError(f"synth spec: unknown key '{sorted(unknown)[0]}'")
    kv = {key: _typed(key, text, f"spec {args.spec}", SYNTH_KEYS[key])
          for key, text in raw_kv.items()}
    emb_dim = kv.pop("embedding_dim", 0)
    emb_scale = kv.pop("embedding_scale", 1.0)
    if not 0 <= emb_scale < np.inf:
        raise ConfigError(
            f"synth spec key 'embedding_scale': must be finite and >= 0, got {emb_scale}")
    spec = D.SynthSpec(**kv)
    raw, provenance = D.generate_synthetic(spec)
    run = Run(args.out, {"spec": args.spec, "seed": spec.seed}, [args.spec])
    run.outputs += D.write_corpus(args.out, raw, provenance)
    if emb_dim > 0:
        tokens = sorted({tok for _, task in raw.items() for split in task.splits.values()
                         for toks, _ in split for tok in toks})
        vectors = D.synth_embedding_vectors(tokens, emb_dim, seed=spec.seed,
                                            scale=emb_scale)
        D.write_embeddings_text(run.path("vectors.txt"), vectors)
    for name in sorted(raw):
        c = {s: len(v) for s, v in raw[name].splits.items()}
        print(f"task {name}: train={c['train']} dev={c['dev']} test={c['test']} "
              f"unlabeled={len(raw[name].unlabeled)}")
    return run


def cmd_dump_activations(args) -> Run:
    _require_file(args.sentences, "--sentences")
    params, config, _, vocab, run = _reload(args)
    run.inputs.append(args.sentences)
    if args.task not in config.task_names:
        raise CompatibilityError(f"task '{args.task}' not in checkpoint tasks")
    task = config.task_names.index(args.task)
    d = config.hidden_size
    header = (["sentence", "t", "token"]
              + [f"{layer}_{j}" for layer in ("shared", "private") for j in range(d)]
              + [f"prob_{c}" for c in range(config.classes[task])])
    sentences = [line.split() for _, line in D.text_lines(args.sentences) if line.split()]
    if not sentences:
        raise InputError(f"{args.sentences}: no sentences")
    keys = ((si, t, token) for si, tokens in enumerate(sentences)
            for t, token in enumerate(tokens, 1))
    out_path = run.path("activations.csv")
    with open(out_path, "w", encoding="utf-8") as fh:  # one chunk's rows at a time
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(header)
        for chunk in T.chunks(sentences):
            states, probs = M.dump_activations(params, config, list(map(vocab.encode, chunk)), task)
            private = states[:, :d] if config.has_private else np.zeros_like(states)
            values = np.concatenate([states[:, -d:], private, probs], axis=1).tolist()
            rows.writerows((*next(keys), *row) for row in values)
    print(f"wrote {out_path} ({sum(map(len, sentences))} rows)")
    return run


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _StoreText(argparse.Action):
    """Store a flag's text; argparse (Python 3.11) passes ``--key=--`` on as ``[]``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _add_config_flags(p: argparse.ArgumentParser, keys) -> None:
    """One ``--key-with-dashes`` flag per ``CONFIG_KEYS`` entry; unset is None."""
    for key in keys:
        cast, _, _, help_text = CONFIG_KEYS[key]
        kind = (dict(action="store_const", const="true") if cast is _bool
                else dict(action=_StoreText))
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advmtl",
        description="Adversarial shared-private multi-task LSTM classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--data", required=True, help="corpus root directory")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, CONFIG_KEYS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="json: print JSON without --out, also write eval_<split>.json with it")
    p.add_argument("--out", default=None)
    _add_config_flags(p, ("seed",))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transfer", help="transfer a frozen shared layer")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--checkpoint", required=True, help="source model")
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None, help="target task name")
    p.add_argument("--all-targets", action="store_true",
                   help="one transfer per task in the data root")
    p.add_argument("--mode", choices=("sc", "bc"), required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, TRANSFER_KEYS[:5])
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    p.add_argument("--spec", required=True, help="flat key=value synthetic spec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("dump-activations", help="per-timestep encoder states")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="corpus root (rebuilds the training vocabulary)")
    p.add_argument("--sentences", required=True,
                   help="file with one pre-tokenized sentence per line")
    p.add_argument("--task", required=True, help="task name for the head")
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("seed",))
    p.set_defaults(func=cmd_dump_activations)

    return parser


# error class -> exit code; an error takes the code of its nearest listed class
EXIT_CODES = {ConfigError: EXIT_CONFIG, CompatibilityError: EXIT_COMPAT,
              NumericError: EXIT_NUMERIC, AdvMtlError: EXIT_IO, OSError: EXIT_IO}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        run = args.func(args)
        if run.out:
            write_manifest(run, args.command, started)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
    return run.code


if __name__ == "__main__":
    sys.exit(main())
