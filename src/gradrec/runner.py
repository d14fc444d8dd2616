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
from gradrec.data import InteractionTable, SparseRow
from gradrec.engine import make_optimizer
from gradrec.errors import ConfigError, GradrecError
from gradrec.models import MODELS, base

log = logging.getLogger(__name__)


def interactions_to_fm_rows(table: InteractionTable) -> tuple[list[SparseRow], int]:
    """One-hot user+item encoding: feature u for the user, n_users + i for
    the item; rating as the label."""
    rows = [SparseRow(label=rating, features=((user, 1.0), (item, 1.0)))
            for user, item, rating in zip(table.users.tolist(),
                                          (table.items + table.n_users).tolist(),
                                          table.ratings.tolist())]
    return rows, table.n_users + table.n_items


def split_libfm_rows(rows: list[SparseRow], ratio: float,
                     seed: int) -> tuple[list[SparseRow], list[SparseRow]]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(rows))
    n_test = int(round(ratio * len(rows)))
    test_idx = set(order[:n_test].tolist())
    train = [rows[k] for k in range(len(rows)) if k not in test_idx]
    test = [rows[k] for k in range(len(rows)) if k in test_idx]
    return train, test


def build_model(cfg: ExperimentConfig, **data):
    """A fresh model sized for the training data: the bundle entries it
    reads, as keywords (``train=table``, or all of ``prepare_data``)."""
    return MODELS[cfg.model.name].create(cfg, data)


def checkpoint_tensors(cfg: ExperimentConfig, model) -> dict[str, np.ndarray]:
    """What ``save_checkpoint`` stores for ``model``; the tensors alone
    define it, so ``cfg`` is not read."""
    return model.checkpoint_tensors()


def prepare_data(cfg: ExperimentConfig):
    """Load and split per the config. Returns a dict bundle keyed by task."""
    task = cfg.model.task
    if cfg.data.format == "libfm":
        rows = datamod.parse_libfm(cfg.data.path)
        train_rows, test_rows = split_libfm_rows(rows, cfg.data.split.ratio, cfg.data.seed)
        return {"task": "rating", "rows": rows, "train_rows": train_rows,
                "test_rows": test_rows, "n_features": datamod.n_features(rows)}
    table = datamod.load_interactions(cfg.data.path)
    if task in ("ranking", "sequential"):
        table = datamod.binarize(table, cfgmod.binarize_threshold_for(cfg))
        if len(table) == 0:
            raise GradrecError("no interactions left after binarization; "
                               "lower data.binarize_threshold")
    train, test = datamod.split(table, cfg.data.split)
    bundle = {"task": task, "table": table, "train": train, "test": test}
    if MODELS[cfg.model.name].feature_rows:
        bundle["train_rows"], bundle["n_features"] = interactions_to_fm_rows(train)
        bundle["test_rows"], _ = interactions_to_fm_rows(test)
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
        if MODELS[cfg.model.name].feature_rows:
            test_rows = bundle["test_rows"]
            if not test_rows:
                raise GradrecError("empty test split")
            pairs = [(model.predict(row), row.label) for row in test_rows]
            users = len(test_rows)
        else:
            test = bundle["test"]
            if len(test) == 0:
                raise GradrecError("empty test split")
            predicted = metricsmod.pair_scores(model.score_matrix, test.users, test.items)
            pairs = zip(predicted.tolist(), test.ratings.tolist())
            users = np.unique(test.users).size
        return metricsmod.rating_report(pairs, seed=cfg.data.seed, users=users)
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


def load_model(checkpoint_path: str | Path, override_cfg: ExperimentConfig | None = None):
    """Restore (config, model, bundle) from a checkpoint.

    The data pipeline is rebuilt from the echoed config (or the override),
    which is deterministic, so id maps and serving state match training.
    """
    name, echo, tensors = ckpt.load_checkpoint(checkpoint_path)
    echo_cfg = cfgmod.parse_config(echo)
    cfg = override_cfg if override_cfg is not None else echo_cfg
    if cfg.model.name != name:
        raise ConfigError([f"checkpoint holds model {name!r} but config names "
                           f"{cfg.model.name!r}"])
    model = MODELS[name].restore(tensors, cfg)
    bundle = prepare_data(cfg)
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
    if MODELS[cfg.model.name].feature_rows:
        raise ConfigError(["recommend does not serve fm checkpoints; "
                           "use evaluate to score an fm model"])
    table = bundle["table"]
    user = table.user_index.get(raw_user)
    if user is None:
        raise GradrecError(f"unknown user id {raw_user!r}")
    row = model.score_matrix(np.array([user]))[0]
    # the inverse of the raw-id order: each item's rank under Python string order
    raw_rank = np.argsort(sorted(range(table.n_items), key=table.item_ids.__getitem__))
    top = np.lexsort((raw_rank, -row))[:n].tolist()
    return [(table.item_ids[item], float(row[item])) for item in top]
