"""Config-driven experiment pipeline: load -> split -> train -> evaluate,
with checkpoint persistence and byte-reproducible reports."""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from gradrec import checkpoint as ckpt
from gradrec import config as cfgmod
from gradrec import data as datamod
from gradrec import metrics as metricsmod
from gradrec.config import ExperimentConfig
from gradrec.engine import make_optimizer
from gradrec.errors import CheckpointError, ConfigError, GradrecError
from gradrec.models import MODELS, base

log = logging.getLogger(__name__)


def build_model(cfg: ExperimentConfig, **data):
    """A fresh model sized for the training data: the bundle entries it
    reads, as keywords (``train=table``, or all of ``prepare_data``)."""
    return MODELS[cfg.model.name].create(cfg, data)


# The checkpoint tensors besides a model's parameters
TRAIN_PREFIX = "train."  # the served train table's columns
TEST_PREFIX = "test."  # the test table's rows, over the train table's id lists
DATA_DIGEST = "data.sha256"  # the training data file's SHA-256, hex


def checkpoint_tensors(cfg: ExperimentConfig, model) -> dict[str, np.ndarray | list[str]]:
    """What ``save_checkpoint`` stores for ``model``: its parameters, the
    served train table's :data:`~gradrec.data.TABLE_COLUMNS` as
    ``train.<column>`` and the test table's rows as ``test.<column>`` (all
    that serving and evaluation read), then the SHA-256 of ``cfg``'s data file."""
    tensors: dict[str, np.ndarray | list[str]] = dict(model.params)
    for prefix, table, columns in ((TRAIN_PREFIX, model.train_table, datamod.TABLE_COLUMNS),
                                   (TEST_PREFIX, model.test_table, datamod.TABLE_COLUMNS[:4])):
        if table is not None:
            tensors.update({prefix + column: getattr(table, column) for column in columns})
    tensors[DATA_DIGEST] = [datamod.file_sha256(cfg.data.path)]
    return tensors


def _pop_tables(tensors: dict) -> tuple:
    """Remove the train and test tables that :func:`checkpoint_tensors` adds
    from checkpoint ``tensors`` and rebuild them over one pair of id maps, as
    ``data.split`` does; None for a table the checkpoint lacks."""
    columns = [tensors.pop(TRAIN_PREFIX + column, None) for column in datamod.TABLE_COLUMNS]
    test = [tensors.pop(TEST_PREFIX + column, None) for column in datamod.TABLE_COLUMNS[:4]]
    if columns[0] is None:
        return None, None
    shared = [*columns[4:], *(dict(zip(ids, range(len(ids)))) for ids in columns[4:])]
    return (datamod.InteractionTable(*columns[:4], *shared),
            None if test[0] is None else datamod.InteractionTable(*test, *shared))


def prepare_data(cfg: ExperimentConfig):
    """Load and split per the config. Returns a dict bundle keyed by task."""
    task = cfg.model.task
    if cfg.data.format == "libfm":
        rows = datamod.parse_libfm(cfg.data.path)
        held = datamod.held_out(len(rows), cfg.data.split)
        return {"task": "rating", "train_rows": rows.take(~held), "test_rows": rows.take(held)}
    table = datamod.load_interactions(cfg.data.path)
    if task in ("ranking", "sequential"):
        table = datamod.binarize(table, cfg.data.binarize_threshold)
        if len(table) == 0:
            raise GradrecError("no interactions left after binarization; "
                               "lower data.binarize_threshold")
    train, test = datamod.split(table, cfg.data.split)
    bundle = {"task": task, "table": table, "train": train, "test": test}
    if task == "sequential":
        bundle["sequences"] = datamod.build_sequences(train, cfg.model.L, cfg.model.T)
    return bundle


def fit_model(cfg: ExperimentConfig, model, bundle) -> list[float]:
    t = cfg.train
    return base.train(model, bundle, make_optimizer(t.optimizer, t.lr), t.epochs,
                      t.batch_size, seed=t.seed, neg_samples=t.neg_samples)


def evaluate_model(cfg: ExperimentConfig, model, bundle) -> metricsmod.MetricReport:
    task = bundle["task"]
    if task == "rating":
        libfm = cfg.data.format == "libfm"
        test = bundle["test_rows" if libfm else "test"]
        if len(test) == 0:
            raise GradrecError("empty test split")
        if libfm:  # the rows carry no user ids, so the report counts rows
            predicted, actual = model.predict_rows(test.index, test.value), test.labels
            users = len(test)
        else:
            predicted = metricsmod.pair_scores(model.score_matrix, test.users, test.items)
            actual, users = test.ratings, np.unique(test.users).size
        return metricsmod.rating_report(predicted, actual, seed=cfg.data.seed, users=users)
    protocol = cfg.eval.protocol_obj(seed=cfg.data.seed)
    return metricsmod.evaluate_ranking(model.score_matrix, bundle["train"], bundle["test"],
                                       protocol, cfg.eval.cutoffs, seed_echo=cfg.data.seed)


def run(cfg: ExperimentConfig, checkpoint_path: str | Path | None = None,
        report_path: str | Path | None = None):
    """Full pipeline. Returns (report, model, loss trace)."""
    bundle = prepare_data(cfg)
    model = build_model(cfg, **bundle)
    trace = fit_model(cfg, model, bundle)
    log.info("training finished: first-epoch loss %.6f, last-epoch loss %.6f",
             trace[0], trace[-1])
    report = evaluate_model(cfg, model, bundle)
    if checkpoint_path is not None:
        ckpt.save_checkpoint(checkpoint_path, cfg.model.name, cfg.text,
                             checkpoint_tensors(cfg, model))
    if report_path is not None:
        write_report(report_path, report)
    return report, model, trace


def write_report(path: str | Path, report: metricsmod.MetricReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_text())


def _split_inputs(cfg: ExperimentConfig) -> tuple:
    """What ``prepare_data`` reads of ``[data]`` besides the file's bytes."""
    return cfg.data.format, cfg.data.split, cfg.data.binarize_threshold


def load_model(checkpoint_path: str | Path, override_cfg: ExperimentConfig | None = None):
    """Restore (config, model, bundle) from a checkpoint.

    The bundle is ``{"task", "train", "test", "table"}`` from the checkpoint
    alone, ``table`` being the stored train table, whose id maps are those
    of the full data. An override config's data file must match the stored
    SHA-256; when its ``[data]`` would split the file otherwise, or the
    checkpoint holds no test split, the bundle is ``prepare_data(override)``.
    Either way ``model.serve`` then derives the serving state.
    """
    name, echo, tensors = ckpt.load_checkpoint(checkpoint_path)
    stored = tensors.pop(DATA_DIGEST, [None])[0]
    train, test = _pop_tables(tensors)
    cfg = override_cfg if override_cfg is not None else cfgmod.parse_config(echo)
    if cfg.model.name != name:
        raise ConfigError([f"checkpoint holds model {name!r} but config names "
                           f"{cfg.model.name!r}"])
    model = MODELS[name].restore(tensors, cfg)
    if override_cfg is not None:
        digest = datamod.file_sha256(cfg.data.path)
        if digest != stored:
            raise GradrecError(f"{cfg.data.path} has SHA-256 {digest}, but {checkpoint_path} "
                               f"was trained on data with SHA-256 {stored}")
    if override_cfg is not None and (test is None or _split_inputs(cfg)
                                     != _split_inputs(cfgmod.parse_config(echo))):
        bundle = prepare_data(cfg)
    elif train is None and cfg.data.format != "libfm":  # fm on libfm rows serves no users
        raise CheckpointError(f"{checkpoint_path}: holds no train table to serve from; "
                              "retrain the model")
    else:
        bundle = {"task": cfg.model.task, "train": train, "test": test, "table": train}
    model.serve(bundle)
    return cfg, model, bundle


def recommend(checkpoint_path: str | Path, raw_user: str, n: int) -> list[tuple[str, float]]:
    """Top-n (raw item id, score) for a user, over the full catalog.

    Ranks the user's ``score_matrix`` row (consumed items included: the
    checkpoint is the only input); ties break by ascending raw item id.
    """
    if n < 1:
        raise ConfigError([f"recommend needs n >= 1, got {n}"])
    cfg, model, bundle = load_model(checkpoint_path)
    if cfg.data.format == "libfm":
        raise ConfigError(["recommend cannot serve a model trained on libfm data: "
                           "its rows carry no user ids; use evaluate to score it"])
    table = bundle["table"]
    user = table.user_index.get(raw_user)
    if user is None:
        raise GradrecError(f"unknown user id {raw_user!r}")
    row = model.score_matrix(np.array([user]))[0]
    kth = min(n, row.size) - 1
    # every item scoring at least as well as the n-th best, its ties included
    near = np.flatnonzero(row >= -np.partition(-row, kth)[kth]).tolist()
    top = sorted(near, key=lambda item: (-row[item], table.item_ids[item]))[:n]
    return [(table.item_ids[item], float(row[item])) for item in top]
