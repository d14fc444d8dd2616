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
from gradrec.data import SequenceInstance, latest_windows
from gradrec.errors import GradrecError
from gradrec.models import base

Array = np.ndarray


class _Windows(base.Model):
    """Training feed shared by Caser and AttRec: the sequence instances and
    a negative sampler; served from each user's latest window."""

    task = "sequential"
    required = ("k", "L")
    serve_windows: dict[int, tuple[int, ...]]  # user -> latest window; set by serve

    @property
    def padding_id(self) -> int:
        return self.n_items

    def serve(self, data) -> None:
        super().serve(data)
        self.serve_windows = latest_windows(data["train"], self.window)

    def bind(self, data, batch_size, neg_samples) -> None:
        sequences = data["sequences"]
        if sequences.window != self.window:
            raise GradrecError(f"sequence window {sequences.window} != model window {self.window}")
        self._instances = sequences.instances
        if not self._instances:
            raise GradrecError("no training instances")
        self._sampler = base.NegativeSampler(data["train"])
        self._batch_size, self._neg = batch_size, neg_samples

    def _pack(self, users, windows) -> tuple[Array, Array]:
        """``users`` (B,) and their ``windows`` (B, L) as int64 arrays."""
        bad = [len(w) for w in windows if len(w) != self.window]
        if bad:
            raise GradrecError(f"window must have length {self.window}, got {bad[0]}")
        return np.asarray(users, dtype=np.int64), np.array(windows, dtype=np.int64)

    def _embed_windows(self, table: E.Node, windows: Array) -> E.Node:
        """One lookup of every window id, shape (B, L, d)."""
        rows = E.embedding_lookup(table, windows.ravel())
        return rows.reshape(windows.shape + (rows.value.shape[1],))


class Prme(base.Model):
    """Blend of a user-preference distance and a first-order sequential
    distance; trained with a BPR-style pairwise loss on next items."""

    names = ("prme",)
    task = "sequential"
    required = ("k", "alpha")
    defaults = {"L": 1}

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
        self.last_item: dict[int, int] = {}

    @classmethod
    def settings(cls, cfg) -> dict:
        return {"alpha": cfg.model.alpha, "l2": cfg.train.l2}

    @classmethod
    def config_issues(cls, m) -> list[str]:
        if m.L not in (None, 1):
            return ["[model] prme is first-order: L must be 1 when given"]
        return []

    def build_loss(self, leaves, batch) -> E.Node:
        """``batch`` is (users, previous items, next items, negatives)."""
        users, prevs, pos, neg = batch
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

    def serve(self, data) -> None:
        super().serve(data)
        self.last_item = {u: w[0] for u, w in latest_windows(data["train"], 1).items()}

    def bind(self, data, batch_size, neg_samples) -> None:
        sequences = data["sequences"]
        if sequences.window != 1 or sequences.horizon != 1:
            raise GradrecError("PRME is first-order: build sequences with L=1, T=1")
        inst = [x for x in sequences.instances if x.window[0] != sequences.padding_id]
        if not inst:
            raise GradrecError("no trainable transitions in the sequence data")
        self._examples = (np.array([x.user for x in inst]), np.array([x.window[0] for x in inst]),
                          np.array([x.targets[0] for x in inst]))
        self._sampler = base.NegativeSampler(data["train"])
        self._batch_size = batch_size

    def batches(self, epoch, rng):
        users, prevs, pos = self._examples
        for idx in base.minibatches(users.size, self._batch_size, rng):
            neg = self._sampler.draw_many(users[idx], 1, rng).ravel()
            yield idx.size, (users[idx], prevs[idx], pos[idx], neg)

    def score_matrix(self, users):
        """Negated blend of the user's and its last item's distances to every item."""
        p = self.params
        scores = base.sq_dists(p["user_embed"][users], p["pref_item"])
        scores *= -self.alpha  # in place: no third (B, n_items) array at the peak
        seq = base.sq_dists(p["seq_item"][base.served(self.last_item, users)], p["seq_item"])
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
        self.serve_windows = {}

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
            conv = E.conv_h(ew, leaves[f"h_filters_{h}"], leaves[f"h_bias_{h}"])
            pooled.append(E.max_over_time(conv.relu()))  # (B, n_h)
        vert = E.matmul(leaves["v_filters"], ew)  # (B, n_v, d)
        flat = vert.reshape((len(users), self.n_v * ew.value.shape[2]))
        cat = E.concat(pooled + [flat], axis=1)
        z = base.affine(cat, leaves["fc_w"].T, leaves["fc_b"]).relu()  # (B, d)
        return E.concat([z, E.embedding_lookup(leaves["user_embed"], users)], axis=1)

    def pair_logits(self, leaves, zu: E.Node, rows: Array, items: Array) -> E.Node:
        """The logit of each (row of ``zu``, item) pair, shape (P,)."""
        w = E.embedding_lookup(leaves["out_w"], items)
        return ((E.embedding_lookup(zu, rows) * w).sum(axis=1)
                + E.embedding_lookup(leaves["out_b"], items))

    def build_loss(self, leaves, batch: list[tuple[SequenceInstance, Array]]) -> E.Node:
        """batch pairs each instance with its sampled negatives; BCE is
        averaged over all (positive + negative) examples in the batch."""
        users, windows = self._pack([x.user for x, _ in batch], [x.window for x, _ in batch])
        counts = np.array([(len(x.targets), neg.size) for x, neg in batch])  # (pos, neg)
        items = np.concatenate([part for x, neg in batch for part in (x.targets, neg)])
        labels = np.repeat(np.tile([1.0, 0.0], len(batch)), counts.ravel())
        rows = np.repeat(np.arange(len(batch)), counts.sum(axis=1))
        zu = self.user_vectors(leaves, users, windows)
        logits = self.pair_logits(leaves, zu, rows, items)
        return (logits.softplus() - E.const(labels) * logits).sum() * (1.0 / labels.size)

    def batches(self, epoch, rng):
        inst = self._instances
        for idx in base.minibatches(len(inst), self._batch_size, rng):
            chosen = [inst[i] for i in idx]
            counts = [self._neg * len(x.targets) for x in chosen]
            # one draw per negative, in instance order: the same stream as one
            # draw(user, count) call per instance
            users = np.repeat([x.user for x in chosen], counts)
            negatives = np.split(self._sampler.draw_many(users, 1, rng).ravel(),
                                 np.cumsum(counts)[:-1])
            yield idx.size, list(zip(chosen, negatives))

    def after_step(self) -> None:
        self.params["item_embed"][self.padding_id] = 0.0
        super().after_step()

    def score_matrix(self, users):
        """The output layer over ``user_vectors`` of the users' latest windows."""
        users, windows = self._pack(users, base.served(self.serve_windows, users))
        zu = self.user_vectors(self.const_leaves(), users, windows).value
        return zu @ self.params["out_w"].T + self.params["out_b"]


class AttRec(_Windows):
    """Self-attention over the embedded window for short-term intent,
    blended with a long-term user/item metric distance; hinge-trained,
    with rows clipped to a norm ball after every step."""

    names = ("attrec",)
    required = ("k", "L", "omega", "margin", "clip_rho")

    def __init__(self, n_users: int, n_items: int, d: int, window: int,
                 k_lt: int | None = None, omega: float = 0.5, margin: float = 0.5,
                 clip_rho: float = 1.0, seed: int = 0):
        if not 0.0 <= omega <= 1.0:
            raise GradrecError(f"omega must be in [0, 1], got {omega}")
        rng = np.random.default_rng(seed)
        k_lt = k_lt if k_lt is not None else d
        self.window = window
        self.omega = omega
        self.margin = margin
        self.clip_rho = clip_rho
        self.params: dict[str, Array] = {
            "att_item": base.init_normal(rng, n_items + 1, d),
            "w_query": base.init_normal(rng, d, d),
            "w_key": base.init_normal(rng, d, d),
            "lt_user": base.init_normal(rng, n_users, k_lt),
            "lt_item": base.init_normal(rng, n_items, k_lt),
        }
        self.params["att_item"][n_items] = 0.0
        self.serve_windows = {}

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

    def build_loss(self, leaves, batch: list[tuple[SequenceInstance, int]]) -> E.Node:
        users, windows = self._pack([x.user for x, _ in batch], [x.window for x, _ in batch])
        pos = np.array([x.targets[0] for x, _ in batch], dtype=np.int64)
        neg = np.array([n for _, n in batch], dtype=np.int64)
        intents = self.intents(leaves, windows)
        s_pos = self.distances(leaves, users, intents, pos)
        s_neg = self.distances(leaves, users, intents, neg)
        return (self.margin + s_pos - s_neg).relu().sum() * (1.0 / len(batch))

    def project(self) -> None:
        for name in ("att_item", "lt_user", "lt_item"):
            self.params[name] = base.clip_rows_to_ball(self.params[name], self.clip_rho)
        self.params["att_item"][self.padding_id] = 0.0

    def bind(self, data, batch_size, neg_samples) -> None:
        if data["sequences"].horizon != 1:
            raise GradrecError("AttRec trains on single next items: build sequences with T=1")
        super().bind(data, batch_size, neg_samples)

    def batches(self, epoch, rng):
        inst = self._instances
        for idx in base.minibatches(len(inst), self._batch_size, rng):
            chosen = [inst[i] for i in idx]
            negatives = self._sampler.draw_many([x.user for x in chosen], 1, rng).ravel()
            yield idx.size, list(zip(chosen, negatives.tolist()))

    def after_step(self) -> None:
        self.project()
        super().after_step()

    def score_matrix(self, users):
        """Negated blend of the user's and its latest intent's distances to every item."""
        p = self.params
        users, windows = self._pack(users, base.served(self.serve_windows, users))
        intents = self.intents(self.const_leaves(), windows).value
        scores = base.sq_dists(p["lt_user"][users], p["lt_item"])
        scores *= -self.omega
        short = base.sq_dists(intents, p["att_item"][:self.n_items])
        short *= 1.0 - self.omega
        scores -= short
        return scores
