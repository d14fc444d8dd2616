"""Sequence-aware models: first-order metric embedding (PRME), a
convolutional sequence model (Caser), and self-attention over the recent
window blended with a long-term metric term (AttRec).

PRME and AttRec produce distances (lower is better); their ``score``
methods negate so every model ranks by descending score. Padding rows of
the item embedding tables are pinned to zero after every optimizer step.
"""

from __future__ import annotations

import numpy as np

from gradrec import engine as E
from gradrec.data import latest_windows
from gradrec.errors import GradrecError
from gradrec.models import base

Array = np.ndarray


class _Windows(base.Model):
    """Training feed and serving state shared by the sequence models: the
    sequence instances and a negative sampler, and each user's latest
    window. A batch is (users (B,), windows (B, L), targets (B, T),
    negatives (B, neg * T)), the last two right-padded with the padding id:
    each instance carries ``neg`` negatives per target."""

    task = "sequential"
    required = ("k", "L")
    horizon: int | None = 1  # the T a model trains on; None: any
    windows: Array  # (n_users, L) latest windows, all padding without a history; set by serve

    @property
    def padding_id(self) -> int:
        return self.n_items

    def serve(self, data) -> None:
        super().serve(data)
        table = data["train"]
        users, windows = latest_windows(table, self.window)
        self.windows = np.full((table.n_users, self.window), self.padding_id)
        self.windows[users] = windows

    def _served(self, users) -> tuple[Array, Array]:
        """``users`` as int64 and their latest windows (B, L); a window
        whose last item is padding has no history behind it."""
        users = base.checked_users(users, len(self.windows))
        windows = self.windows[users]
        empty = windows[:, -1] == self.padding_id
        if empty.any():
            raise GradrecError(f"no history recorded for user {users[np.argmax(empty)]}")
        return users, windows

    def bind(self, data, batch_size, neg_samples) -> None:
        sequences = data["sequences"]
        if sequences.window != self.window:
            raise GradrecError(f"sequence window {sequences.window} != model window {self.window}")
        if self.horizon not in (None, sequences.horizon):
            raise GradrecError(f"sequence horizon {sequences.horizon} != model horizon "
                               f"{self.horizon}")
        if not sequences.users.size:
            raise GradrecError("no training instances")
        self._sequences = sequences
        self._sampler = base.NegativeSampler(data["train"])
        self._batch_size = batch_size
        self._neg = 1 if self.neg_samples is None else neg_samples

    def batches(self, rng):
        seq = self._sequences
        for idx in base.minibatches(seq.users.size, self._batch_size, rng):
            users, targets = seq.users[idx], seq.targets[idx]
            counts = self._neg * np.count_nonzero(targets != self.padding_id, axis=1)
            # one draw per negative, in instance order: the same stream as one
            # draw(user, count) call per instance
            drawn = self._sampler.draw_many(np.repeat(users, counts), 1, rng).ravel()
            negatives = np.full((idx.size, self._neg * seq.horizon), self.padding_id)
            negatives[np.arange(negatives.shape[1]) < counts[:, None]] = drawn
            yield idx.size, (users, seq.windows[idx], targets, negatives)

    def _embed_windows(self, table: E.Node, windows: Array) -> E.Node:
        """One lookup of every window id, shape (B, L, d)."""
        rows = E.embedding_lookup(table, windows.ravel())
        return rows.reshape(windows.shape + (rows.value.shape[1],))


class Prme(_Windows):
    """Blend of a user-preference distance and a first-order sequential
    distance; trained with a BPR-style pairwise loss on next items. The
    window model of width 1: the window is the previous item."""

    names = ("prme",)
    required = ("k", "alpha")
    defaults = {"L": 1}
    window = 1

    def __init__(self, n_users: int, n_items: int, k: int, alpha: float = 0.5,
                 l2: float = 0.0, seed: int = 0):
        if not 0.0 <= alpha <= 1.0:
            raise GradrecError(f"alpha must be in [0, 1], got {alpha}")
        rng = np.random.default_rng(seed)
        self.alpha = alpha
        self.l2 = l2
        self.params: dict[str, Array] = {
            "user_embed": base.init_normal(rng, n_users, k),
            "pref_item": base.init_normal(rng, n_items, k),
            "seq_item": base.init_normal(rng, n_items, k),
        }

    @classmethod
    def settings(cls, cfg) -> dict:
        return {"alpha": cfg.model.alpha, "l2": cfg.train.l2}

    @classmethod
    def config_issues(cls, m) -> list[str]:
        if m.L not in (None, 1):
            return ["[model] prme is first-order: L must be 1 when given"]
        return []

    @property
    def n_items(self) -> int:
        return self.params["pref_item"].shape[0]

    def build_loss(self, leaves, batch) -> E.Node:
        """``batch`` is (users, windows, targets, negatives), the last three
        one column each: the previous item, the next and a sampled one."""
        users, prevs, pos, neg = (x.reshape(-1) for x in batch)
        a = self.alpha
        uu = E.embedding_lookup(leaves["user_embed"], users)
        sp = E.embedding_lookup(leaves["seq_item"], prevs)

        def dist(items):
            d_pref = E.sq_l2_dist(uu, E.embedding_lookup(leaves["pref_item"], items))
            d_seq = E.sq_l2_dist(sp, E.embedding_lookup(leaves["seq_item"], items))
            return a * d_pref + (1.0 - a) * d_seq

        data = (dist(pos) - dist(neg)).softplus()  # -ln sigma(d_neg - d_pos)
        if self.l2:
            # regularize each table in proportion to its use so alpha=0/1
            # leaves the unused tables untouched
            pref_rows = (base.row_sq_norm(uu)
                         + base.row_sq_norm(E.embedding_lookup(leaves["pref_item"], pos))
                         + base.row_sq_norm(E.embedding_lookup(leaves["pref_item"], neg)))
            seq_rows = (base.row_sq_norm(sp)
                        + base.row_sq_norm(E.embedding_lookup(leaves["seq_item"], pos))
                        + base.row_sq_norm(E.embedding_lookup(leaves["seq_item"], neg)))
            data = data + self.l2 * (a * pref_rows + (1.0 - a) * seq_rows)
        return data.mean()

    def score_matrix(self, users):
        """Negated blend of the user's and its last item's distances to every item."""
        users, windows = self._served(users)
        p = self.params
        scores = base.sq_dists(p["user_embed"][users], p["pref_item"])
        scores *= -self.alpha  # in place: no third (B, n_items) array at the peak
        seq = base.sq_dists(p["seq_item"][windows[:, 0]], p["seq_item"])
        seq *= 1.0 - self.alpha
        scores -= seq
        return scores


class Caser(_Windows):
    """Horizontal (per-height, max-pooled) and vertical convolutions over
    the embedded window, a fully-connected bottleneck, and a wide output
    layer over concat(sequence vector, user embedding)."""

    names = ("caser",)
    defaults = {"T": 1, "n_h": 4, "n_v": 2}
    neg_samples = 3
    horizon = None

    def __init__(self, n_users: int, n_items: int, d: int, window: int,
                 n_h: int = 4, n_v: int = 2, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.window = window
        self.n_h = n_h
        self.n_v = n_v
        self.params: dict[str, Array] = {
            "item_embed": base.init_normal(rng, n_items + 1, d),
        }
        self.params["item_embed"][n_items] = 0.0
        for h in range(1, window + 1):
            self.params[f"h_filters_{h}"] = base.init_normal(rng, n_h, h, d)
            self.params[f"h_bias_{h}"] = np.zeros(n_h)
        self.params["v_filters"] = base.init_normal(rng, n_v, window)
        concat_dim = n_h * window + n_v * d
        self.params["fc_w"] = base.init_normal(rng, d, concat_dim)
        self.params["fc_b"] = np.zeros(d)
        self.params["user_embed"] = base.init_normal(rng, n_users, d)
        self.params["out_w"] = base.init_normal(rng, n_items, 2 * d)
        self.params["out_b"] = np.zeros(n_items)

    @classmethod
    def settings(cls, cfg) -> dict:
        m = cfg.model
        return {"window": m.L, "n_h": m.n_h, "n_v": m.n_v}

    @property
    def n_items(self) -> int:
        return self.params["out_b"].shape[0]

    def user_vectors(self, leaves, users: Array, windows: Array) -> E.Node:
        """concat(sequence vector, user embedding) per row, shape (B, 2d),
        for users (B,) and windows (B, L)."""
        ew = self._embed_windows(leaves["item_embed"], windows)  # (B, L, d)
        pooled = []
        for h in range(1, self.window + 1):
            conv = E.conv_h(ew, leaves[f"h_filters_{h}"]) + leaves[f"h_bias_{h}"]
            pooled.append(E.max_over_time(conv.relu()))  # (B, n_h)
        vert = E.matmul(leaves["v_filters"], ew)  # (B, n_v, d)
        flat = vert.reshape((len(users), self.n_v * ew.value.shape[2]))
        cat = E.concat(pooled + [flat], axis=1)
        z = (E.matmul(cat, leaves["fc_w"].T) + leaves["fc_b"]).relu()  # (B, d)
        return E.concat([z, E.embedding_lookup(leaves["user_embed"], users)], axis=1)

    def pair_logits(self, leaves, zu: E.Node, rows: Array, items: Array) -> E.Node:
        """The logit of each (row of ``zu``, item) pair, shape (P,)."""
        w = E.embedding_lookup(leaves["out_w"], items)
        return ((E.embedding_lookup(zu, rows) * w).sum(axis=1)
                + E.embedding_lookup(leaves["out_b"], items))

    def build_loss(self, leaves, batch) -> E.Node:
        """BCE averaged over the batch's (positive + negative) pairs, each
        instance's targets, then its negatives."""
        users, windows, targets, negatives = batch
        items = np.concatenate([targets, negatives], axis=1)
        real = items != self.padding_id
        labels = np.concatenate([np.ones(targets.shape), np.zeros(negatives.shape)], axis=1)[real]
        zu = self.user_vectors(leaves, users, windows)
        logits = self.pair_logits(leaves, zu, np.nonzero(real)[0], items[real])
        return (logits.softplus() - E.const(labels) * logits).sum() * (1.0 / labels.size)

    def project(self) -> None:
        self.params["item_embed"][self.padding_id] = 0.0

    def score_matrix(self, users):
        """The output layer over ``user_vectors`` of the users' latest windows."""
        users, windows = self._served(users)
        zu = self.user_vectors(self.const_leaves(), users, windows).value
        return zu @ self.params["out_w"].T + self.params["out_b"]


class AttRec(_Windows):
    """Self-attention over the embedded window for short-term intent,
    blended with a long-term user/item metric distance; hinge-trained,
    with rows clipped to a norm ball after every step."""

    names = ("attrec",)
    required = ("k", "L", "omega", "margin", "clip_rho")

    def __init__(self, n_users: int, n_items: int, d: int, window: int,
                 omega: float = 0.5, margin: float = 0.5, clip_rho: float = 1.0, seed: int = 0):
        if not 0.0 <= omega <= 1.0:
            raise GradrecError(f"omega must be in [0, 1], got {omega}")
        rng = np.random.default_rng(seed)
        self.window = window
        self.omega = omega
        self.margin = margin
        self.clip_rho = clip_rho
        self.params: dict[str, Array] = {
            "att_item": base.init_normal(rng, n_items + 1, d),
            "w_query": base.init_normal(rng, d, d),
            "w_key": base.init_normal(rng, d, d),
            "lt_user": base.init_normal(rng, n_users, d),
            "lt_item": base.init_normal(rng, n_items, d),
        }
        self.params["att_item"][n_items] = 0.0

    @classmethod
    def settings(cls, cfg) -> dict:
        m = cfg.model
        return {"window": m.L, "omega": m.omega, "margin": m.margin, "clip_rho": m.clip_rho}

    @property
    def d(self) -> int:
        return self.params["att_item"].shape[1]

    @property
    def n_items(self) -> int:
        return self.params["lt_item"].shape[0]

    def intents(self, leaves, windows: Array) -> E.Node:
        """Mean of the attention-weighted window embeddings per row of
        windows (B, L), shape (B, d)."""
        ew = self._embed_windows(leaves["att_item"], windows)  # (B, L, d)
        flat = ew.reshape((windows.size, self.d))
        q = E.matmul(flat, leaves["w_query"]).relu().reshape(ew.value.shape)
        k = E.matmul(flat, leaves["w_key"]).relu().reshape(ew.value.shape)
        attn = E.softmax_rows(E.matmul(q, k.T) * (1.0 / np.sqrt(self.d)))  # (B, L, L)
        return E.matmul(attn, ew).mean(axis=1)

    def distances(self, leaves, users: Array, intents: E.Node, items: Array) -> E.Node:
        """Blended squared distance of each row's user and intent to its
        item, shape (B,); lower means better."""
        uu = E.embedding_lookup(leaves["lt_user"], users)
        vi = E.embedding_lookup(leaves["lt_item"], items)
        xi = E.embedding_lookup(leaves["att_item"], items)
        return (self.omega * E.sq_l2_dist(uu, vi)
                + (1.0 - self.omega) * E.sq_l2_dist(intents, xi))

    def build_loss(self, leaves, batch) -> E.Node:
        users, windows, targets, negatives = batch
        intents = self.intents(leaves, windows)
        s_pos = self.distances(leaves, users, intents, targets[:, 0])
        s_neg = self.distances(leaves, users, intents, negatives[:, 0])
        return (self.margin + s_pos - s_neg).relu().sum() * (1.0 / users.size)

    def project(self) -> None:
        for name in ("att_item", "lt_user", "lt_item"):
            self.params[name] = base.clip_rows_to_ball(self.params[name], self.clip_rho)
        self.params["att_item"][self.padding_id] = 0.0

    def score_matrix(self, users):
        """Negated blend of the user's and its latest intent's distances to every item."""
        users, windows = self._served(users)
        p = self.params
        intents = self.intents(self.const_leaves(), windows).value
        scores = base.sq_dists(p["lt_user"][users], p["lt_item"])
        scores *= -self.omega
        short = base.sq_dists(intents, p["att_item"][:self.n_items])
        short *= 1.0 - self.omega
        scores -= short
        return scores
