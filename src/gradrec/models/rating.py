"""Rating-prediction models: biased SVD, factorization machines, and an
item-based autoencoder.

All three train on unclipped scores and clip served predictions to the
rating range observed at fit time.
"""

from __future__ import annotations

import numpy as np

from gradrec import engine as E
from gradrec.data import InteractionTable, SparseRow
from gradrec.errors import GradrecError
from gradrec.models import base

Array = np.ndarray


class BiasedSvd(base.Model):
    """mu + b_u + b_i + p_u . q_i with L2 on biases and factors."""

    names = ("biasedsvd",)
    task = "rating"
    trainable = ("user_bias", "item_bias", "user_factors", "item_factors")

    def __init__(self, n_users: int, n_items: int, k: int, l2: float = 0.0,
                 global_mean: float = 0.0, rating_range: tuple[float, float] = (1.0, 5.0),
                 seed: int = 0):
        if k < 1:
            raise GradrecError(f"factor dimension must be >= 1, got {k}")
        rng = np.random.default_rng(seed)
        self.l2 = l2
        self.params: dict[str, Array] = {
            "global_mean": np.asarray(float(global_mean)),
            "rating_min": np.asarray(float(rating_range[0])),
            "rating_max": np.asarray(float(rating_range[1])),
            "user_bias": np.zeros(n_users),
            "item_bias": np.zeros(n_items),
            "user_factors": base.init_normal(rng, n_users, k),
            "item_factors": base.init_normal(rng, n_items, k),
        }

    @classmethod
    def for_table(cls, table: InteractionTable, k: int, l2: float, seed: int) -> "BiasedSvd":
        return cls(table.n_users, table.n_items, k, l2=l2, global_mean=table.global_mean,
                   rating_range=table.rating_range, seed=seed)

    @classmethod
    def settings(cls, cfg) -> dict:
        return {"l2": cfg.train.l2}

    @classmethod
    def create(cls, cfg, data) -> "BiasedSvd":
        return cls.for_table(data["train"], cfg.model.k, seed=cfg.train.seed, **cls.settings(cfg))

    def build_loss(self, leaves: dict[str, E.Node], batch) -> E.Node:
        """``batch`` is (users, items, ratings), one entry per rating."""
        users, items, ratings = batch
        bu = E.embedding_lookup(leaves["user_bias"], users)
        bi = E.embedding_lookup(leaves["item_bias"], items)
        pu = E.embedding_lookup(leaves["user_factors"], users)
        qi = E.embedding_lookup(leaves["item_factors"], items)
        pred = float(self.params["global_mean"]) + bu + bi + (pu * qi).sum(axis=1)
        err = E.const(ratings) - pred
        reg = self.l2 * (bu * bu + bi * bi + base.row_sq_norm(pu) + base.row_sq_norm(qi))
        return (err * err + reg).mean()

    def bind(self, data, batch_size, neg_samples) -> None:
        train = data["train"]
        self._examples = (train.users, train.items, train.ratings)
        if len(train) == 0:
            raise GradrecError("empty training set")
        self._batch_size = batch_size

    def batches(self, epoch, rng):
        users, items, ratings = self._examples
        for idx in base.minibatches(users.size, self._batch_size, rng):
            yield idx.size, (users[idx], items[idx], ratings[idx])

    def score_matrix(self, users):
        """mu + b_u + b_i + p_u . q_i for every item, clipped to the rating range."""
        p = self.params
        raw = (p["global_mean"] + p["user_bias"][users][:, None] + p["item_bias"]
               + p["user_factors"][users] @ p["item_factors"].T)
        return np.clip(raw, float(p["rating_min"]), float(p["rating_max"]))


class FactorizationMachine(base.Model):
    """Degree-2 FM over libfm-style sparse rows, using the linear-time
    pairwise identity: 0.5 * sum_f [(X v_f)^2 - X^2 v_f^2]."""

    names = ("fm",)
    task = "rating"
    feature_rows = True
    trainable = ("intercept", "linear", "factors")

    def __init__(self, n_features: int, k: int, l2: tuple[float, float, float] | float = 0.0,
                 task: str = "regression", label_range: tuple[float, float] = (0.0, 1.0),
                 seed: int = 0):
        if task not in ("regression", "binary"):
            raise GradrecError(f"unknown FM task {task!r}")
        if isinstance(l2, (int, float)):
            l2 = (float(l2),) * 3
        rng = np.random.default_rng(seed)
        self.task = task
        self.l2 = l2
        self.params: dict[str, Array] = {
            "label_min": np.asarray(float(label_range[0])),
            "label_max": np.asarray(float(label_range[1])),
            "intercept": np.asarray(0.0),
            "linear": np.zeros(n_features),
            "factors": base.init_normal(rng, n_features, k),
        }

    @classmethod
    def for_rows(cls, rows: list[SparseRow], n_features: int, k: int, l2, task: str,
                 seed: int) -> "FactorizationMachine":
        labels = [r.label for r in rows]
        return cls(n_features, k, l2=l2, task=task,
                   label_range=(min(labels), max(labels)), seed=seed)

    @classmethod
    def settings(cls, cfg) -> dict:
        return {"task": "regression", "l2": (cfg.train.l2,) * 3}

    @classmethod
    def create(cls, cfg, data) -> "FactorizationMachine":
        return cls.for_rows(data["train_rows"], data["n_features"], cfg.model.k,
                            seed=cfg.train.seed, **cls.settings(cfg))

    @property
    def n_features(self) -> int:
        return self.params["linear"].shape[0]

    def _dense(self, rows: list[SparseRow]) -> tuple[Array, Array]:
        x = np.zeros((len(rows), self.n_features))
        y = np.empty(len(rows))
        for r, row in enumerate(rows):
            y[r] = row.label
            for idx, val in row.features:
                if idx >= self.n_features:
                    raise GradrecError(f"feature index {idx} out of range "
                                       f"(n_features={self.n_features})")
                x[r, idx] = val
        return x, y

    def build_loss(self, leaves: dict[str, E.Node], rows: list[SparseRow]) -> E.Node:
        x, y = self._dense(rows)
        xc, x2c = E.const(x), E.const(x * x)
        w0, w, v = leaves["intercept"], leaves["linear"], leaves["factors"]
        lin = E.matmul(xc, w)
        xv = E.matmul(xc, v)
        pair = 0.5 * ((xv * xv).sum(axis=1) - E.matmul(x2c, v * v).sum(axis=1))
        pred = w0 + lin + pair
        if self.task == "regression":
            err = E.const(y) - pred
            data = (err * err).mean()
        else:
            if not np.all(np.isin(y, (0.0, 1.0))):
                raise GradrecError("binary FM requires labels in {0, 1}")
            data = base.bce_from_logits(pred, y)
        reg = (self.l2[0] * (w0 * w0) + self.l2[1] * (w * w).sum()
               + self.l2[2] * (v * v).sum())
        return data + reg

    def bind(self, data, batch_size, neg_samples) -> None:
        self._rows = data["train_rows"]
        if not self._rows:
            raise GradrecError("empty training set")
        self._batch_size = batch_size

    def batches(self, epoch, rng):
        for idx in base.minibatches(len(self._rows), self._batch_size, rng):
            batch = [self._rows[i] for i in idx]
            yield len(batch), batch

    def raw_score(self, row: SparseRow) -> float:
        p = self.params
        acc = float(p["intercept"])
        sums = np.zeros(p["factors"].shape[1])
        sq_sums = np.zeros(p["factors"].shape[1])
        for idx, val in row.features:
            if idx >= self.n_features:
                raise GradrecError(f"feature index {idx} out of range")
            acc += p["linear"][idx] * val
            contrib = p["factors"][idx] * val
            sums += contrib
            sq_sums += contrib * contrib
        return acc + 0.5 * float((sums * sums - sq_sums).sum())

    def predict(self, row: SparseRow) -> float:
        raw = self.raw_score(row)
        if self.task == "binary":
            return float(np.exp(-np.logaddexp(0.0, -raw)))
        lo, hi = float(self.params["label_min"]), float(self.params["label_max"])
        return float(np.clip(raw, lo, hi))


class ItemAutoRec(base.Model):
    """Item-based autoencoder: reconstructs an item's rating column over
    users through one sigmoid hidden layer; only observed entries carry
    loss."""

    names = ("autorec",)
    task = "rating"
    trainable = ("encoder_w", "encoder_b", "decoder_w", "decoder_b")

    def __init__(self, n_users: int, n_items: int, hidden: int, l2: float = 0.0,
                 rating_range: tuple[float, float] = (1.0, 5.0), seed: int = 0):
        rng = np.random.default_rng(seed)
        self.l2 = l2
        self.n_items = n_items
        self.params: dict[str, Array] = {
            "rating_min": np.asarray(float(rating_range[0])),
            "rating_max": np.asarray(float(rating_range[1])),
            "encoder_w": base.init_normal(rng, hidden, n_users),
            "encoder_b": np.zeros(hidden),
            "decoder_w": base.init_normal(rng, n_users, hidden),
            "decoder_b": np.zeros(n_users),
        }

    @classmethod
    def for_table(cls, table: InteractionTable, hidden: int, l2: float,
                  seed: int) -> "ItemAutoRec":
        return cls(table.n_users, table.n_items, hidden, l2=l2,
                   rating_range=table.rating_range, seed=seed)

    @classmethod
    def settings(cls, cfg) -> dict:
        return {"l2": cfg.train.l2}

    @classmethod
    def create(cls, cfg, data) -> "ItemAutoRec":
        return cls.for_table(data["train"], cfg.model.k, seed=cfg.train.seed, **cls.settings(cfg))

    @classmethod
    def restore(cls, params, cfg) -> "ItemAutoRec":
        # no weight is sized by the item count, so checkpoints carry it
        n_items = int(params.pop("n_items")[()])
        model = super().restore(params, cfg)
        model.n_items = n_items
        return model

    def checkpoint_tensors(self) -> dict[str, Array]:
        return {**self.params, "n_items": np.asarray(float(self.n_items))}

    @property
    def n_users(self) -> int:
        return self.params["decoder_b"].shape[0]

    def load_columns(self, table: InteractionTable) -> None:
        """The train-time rating matrix: training reconstructs its columns,
        and serving feeds an item's column in to predict."""
        self.columns = np.zeros((self.n_items, self.n_users))
        self.mask = np.zeros((self.n_items, self.n_users))
        self.columns[table.items, table.users] = table.ratings
        self.mask[table.items, table.users] = 1.0

    def build_loss(self, leaves: dict[str, E.Node], item_ids: Array) -> E.Node:
        # mask the input too: only observed ratings may enter the encoder
        r = E.const(self.columns[item_ids] * self.mask[item_ids])  # (B, n_users)
        m = E.const(self.mask[item_ids])
        hidden = base.add_rowvec(E.matmul(r, leaves["encoder_w"].T),
                                 leaves["encoder_b"]).sigmoid()
        out = base.add_rowvec(E.matmul(hidden, leaves["decoder_w"].T), leaves["decoder_b"])
        diff = (r - out) * m
        data = (diff * diff).sum()
        reg = 0.5 * self.l2 * ((leaves["decoder_w"] * leaves["decoder_w"]).sum()
                               + (leaves["encoder_w"] * leaves["encoder_w"]).sum())
        return data + reg

    def serve(self, data) -> None:
        super().serve(data)
        self.load_columns(data["train"])

    def bind(self, data, batch_size, neg_samples) -> None:
        if len(data["train"]) == 0:
            raise GradrecError("empty training set")
        self._batch_size = self.n_items if batch_size is None else batch_size

    def batches(self, epoch, rng):
        for idx in base.minibatches(self.n_items, self._batch_size, rng):
            yield idx.size, idx

    def score_matrix(self, users):
        """The reconstruction of every item's train column at ``users``,
        clipped to the rating range."""
        p = self.params
        z = 1.0 / (1.0 + np.exp(-(self.columns @ p["encoder_w"].T + p["encoder_b"])))
        out = z @ p["decoder_w"][users].T + p["decoder_b"][users]  # (n_items, B)
        return np.clip(out.T, float(p["rating_min"]), float(p["rating_max"]))
