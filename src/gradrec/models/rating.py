"""Rating-prediction models: biased SVD, factorization machines, and an
item-based autoencoder.

All three train on unclipped scores and clip served predictions to the
rating range observed at fit time.
"""

from __future__ import annotations

import numpy as np

from gradrec import engine as E
from gradrec.data import FeatureRows, InteractionTable
from gradrec.errors import GradrecError
from gradrec.models import base

Array = np.ndarray


class BiasedSvd(base.Model):
    """mu + b_u + b_i + p_u . q_i with L2 on biases and factors."""

    names = ("biasedsvd",)
    task = "rating"

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

    def batches(self, rng):
        users, items, ratings = self._examples
        for idx in base.minibatches(users.size, self._batch_size, rng):
            yield idx.size, (users[idx], items[idx], ratings[idx])

    def score_matrix(self, users):
        """mu + b_u + b_i + p_u . q_i for every item, clipped to the rating range."""
        p = self.params
        users = base.checked_users(users, p["user_bias"].size)
        raw = (p["global_mean"] + p["user_bias"][users][:, None] + p["item_bias"]
               + p["user_factors"][users] @ p["item_factors"].T)
        return np.clip(raw, float(p["rating_min"]), float(p["rating_max"]))


class FactorizationMachine(base.Model):
    """Degree-2 FM over feature rows, using the linear-time pairwise
    identity: 0.5 * sum_f [(sum_j x_j v_jf)^2 - sum_j x_j^2 v_jf^2]. On uirt
    data the rows are one-hot: feature u for the user, n_users + i for the
    item."""

    names = ("fm",)
    task = "rating"
    n_users: int | None = None  # set by serve from uirt data; libfm rows have no users

    def __init__(self, n_features: int, k: int, l2: float = 0.0,
                 label_range: tuple[float, float] = (0.0, 1.0), seed: int = 0):
        rng = np.random.default_rng(seed)
        self.l2 = l2
        self.params: dict[str, Array] = {
            "label_min": np.asarray(float(label_range[0])),
            "label_max": np.asarray(float(label_range[1])),
            "intercept": np.asarray(0.0),
            "linear": np.zeros(n_features),
            "factors": base.init_normal(rng, n_features, k),
        }

    @staticmethod
    def train_rows(data) -> FeatureRows:
        """The bundle's libfm training rows, or its uirt table one-hot encoded."""
        return data["train_rows"] if "train_rows" in data else FeatureRows.one_hot(data["train"])

    @classmethod
    def settings(cls, cfg) -> dict:
        return {"l2": cfg.train.l2}

    @classmethod
    def create(cls, cfg, data) -> "FactorizationMachine":
        rows = cls.train_rows(data)
        return cls(rows.n_features, cfg.model.k, seed=cfg.train.seed,
                   label_range=(rows.labels.min(), rows.labels.max()), **cls.settings(cfg))

    def raw(self, leaves: dict[str, E.Node], index: Array, value: Array) -> E.Node:
        """The unclipped FM score of each row of (N, width) feature arrays."""
        n, width = index.shape
        k = self.params["factors"].shape[1]
        flat = index.ravel()
        lin = (E.embedding_lookup(leaves["linear"], flat).reshape((n, width))
               * E.const(value)).sum(axis=1)
        v = E.embedding_lookup(leaves["factors"], flat)  # (N * width, k)
        # sum_f (sum_j x_j v_jf)^2 - sum_j x_j^2 |v_j|^2
        sums = E.matmul(E.const(value.reshape((n, 1, width))), v.reshape((n, width, k)))
        squares = (E.const(value * value) * base.row_sq_norm(v).reshape((n, width))).sum(axis=1)
        pair = 0.5 * (base.row_sq_norm(sums.reshape((n, k))) - squares)
        return leaves["intercept"] + lin + pair

    def build_loss(self, leaves: dict[str, E.Node], rows: FeatureRows) -> E.Node:
        err = E.const(rows.labels) - self.raw(leaves, rows.index, rows.value)
        w0, w, v = leaves["intercept"], leaves["linear"], leaves["factors"]
        return (err * err).mean() + self.l2 * (w0 * w0 + (w * w).sum() + (v * v).sum())

    def serve(self, data) -> None:
        super().serve(data)
        if data.get("train") is not None:
            self.n_users = data["train"].n_users

    def bind(self, data, batch_size, neg_samples) -> None:
        self._rows = self.train_rows(data)
        if len(self._rows) == 0:
            raise GradrecError("empty training set")
        self._batch_size = batch_size

    def batches(self, rng):
        for idx in base.minibatches(len(self._rows), self._batch_size, rng):
            yield idx.size, self._rows.take(idx)

    def predict_rows(self, index: Array, value: Array) -> Array:
        """``raw`` on constant leaves, clipped to the label range, for
        (N, width) feature arrays, PAIR_BLOCK rows per graph."""
        p, leaves = self.params, self.const_leaves()
        out = np.empty(len(index))
        for lo in range(0, len(index), base.PAIR_BLOCK):
            block = slice(lo, lo + base.PAIR_BLOCK)
            out[block] = self.raw(leaves, index[block], value[block]).value
        return np.clip(out, float(p["label_min"]), float(p["label_max"]))

    def score_matrix(self, users):
        """``predict_rows`` over the one-hot (user, item) grid, to rounding:
        with two unit features the FM is w0 + w_u + w_i + <v_u, v_i>, one
        matmul for all rows. Only a model served uirt data has users."""
        if self.n_users is None:
            raise GradrecError("an fm trained on libfm rows has no users to score")
        users = base.checked_users(users, self.n_users)  # not item features
        p, items = self.params, slice(self.n_users, None)
        w, v = p["linear"], p["factors"]
        raw = p["intercept"] + w[users][:, None] + w[items] + v[users] @ v[items].T
        return np.clip(raw, float(p["label_min"]), float(p["label_max"]))


class ItemAutoRec(base.Model):
    """Item-based autoencoder: reconstructs an item's rating column over
    users through one sigmoid hidden layer; only observed entries carry
    loss."""

    names = ("autorec",)
    task = "rating"

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

    @property
    def n_users(self) -> int:
        return self.params["decoder_b"].shape[0]

    def load_columns(self, table: InteractionTable) -> None:
        """The train-time rating matrix: training reconstructs its columns,
        and serving feeds an item's column in to predict. No weight is sized
        by the item count, so it comes from the table too."""
        self.n_items = table.n_items
        self.columns = np.zeros((self.n_items, self.n_users))
        self.mask = np.zeros((self.n_items, self.n_users))
        self.columns[table.items, table.users] = table.ratings
        self.mask[table.items, table.users] = 1.0

    def build_loss(self, leaves: dict[str, E.Node], item_ids: Array) -> E.Node:
        # mask the input too: only observed ratings may enter the encoder
        r = E.const(self.columns[item_ids] * self.mask[item_ids])  # (B, n_users)
        m = E.const(self.mask[item_ids])
        hidden = (E.matmul(r, leaves["encoder_w"].T) + leaves["encoder_b"]).sigmoid()
        out = E.matmul(hidden, leaves["decoder_w"].T) + leaves["decoder_b"]
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

    def batches(self, rng):
        for idx in base.minibatches(self.n_items, self._batch_size, rng):
            yield idx.size, idx

    def score_matrix(self, users):
        """The reconstruction of every item's train column at ``users``,
        clipped to the rating range."""
        p, users = self.params, base.checked_users(users, self.n_users)
        z = 1.0 / (1.0 + np.exp(-(self.columns @ p["encoder_w"].T + p["encoder_b"])))
        out = z @ p["decoder_w"][users].T + p["decoder_b"][users]  # (n_items, B)
        return np.clip(out.T, float(p["rating_min"]), float(p["rating_max"]))
