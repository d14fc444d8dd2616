"""Top-n implicit-feedback models: BPR matrix factorization, collaborative
metric learning, the GMF/MLP/NeuMF family, and a collaborative denoising
autoencoder."""

from __future__ import annotations

import logging

import numpy as np

from gradrec import engine as E
from gradrec.errors import GradrecError
from gradrec.models import base

Array = np.ndarray


def _triplets(users: Array, pos: Array, neg: Array) -> tuple[Array, Array, Array]:
    """Flat (u, i, j) arrays, one per sampled negative, from a batch whose
    ``neg`` holds one row of negatives (or a single one) per positive."""
    neg = np.asarray(neg).reshape(len(users), -1)
    k = neg.shape[1]
    return np.repeat(users, k), np.repeat(pos, k), neg.ravel()


class _SampledPairs(base.Model):
    """Training feed shared by BPR, CML and NeuMF: the observed (user,
    item) pairs and a negative sampler. By default each shuffled
    minibatch of pairs carries a row of sampled negatives per pair."""

    task = "ranking"

    def bind(self, data, batch_size, neg_samples) -> None:
        table = data["train"]
        if len(table) == 0:
            raise GradrecError("empty training set")
        self._sampler = base.NegativeSampler(table)
        self._examples = (table.users, table.items)
        self._batch_size, self._neg = batch_size, neg_samples

    def batches(self, rng):
        users, items = self._examples
        for idx in base.minibatches(users.size, self._batch_size, rng):
            bu = users[idx]
            yield idx.size, (bu, items[idx], self._sampler.draw_many(bu, self._neg, rng))


class BprMf(_SampledPairs):
    """Pairwise ranking MF: -ln sigma(p_u.q_i - p_u.q_j) plus L2."""

    names = ("bprmf",)
    neg_samples = 1

    def __init__(self, n_users: int, n_items: int, k: int, l2: float = 0.0, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.l2 = l2
        self.params: dict[str, Array] = {
            "user_factors": base.init_normal(rng, n_users, k),
            "item_factors": base.init_normal(rng, n_items, k),
        }

    @classmethod
    def settings(cls, cfg) -> dict:
        return {"l2": cfg.train.l2}

    def build_loss(self, leaves: dict[str, E.Node], batch) -> E.Node:
        """``batch`` is (users, positives, negatives) with one row of
        negatives per positive; the loss averages over the triplets."""
        users, pos, neg = _triplets(*batch)
        pu = E.embedding_lookup(leaves["user_factors"], users)
        qi = E.embedding_lookup(leaves["item_factors"], pos)
        qj = E.embedding_lookup(leaves["item_factors"], neg)
        x = (pu * qi).sum(axis=1) - (pu * qj).sum(axis=1)
        data = (-1.0 * x).softplus()  # -ln sigma(x)
        reg = self.l2 * (base.row_sq_norm(pu) + base.row_sq_norm(qi) + base.row_sq_norm(qj))
        return (data + reg).mean()

    def bind(self, data, batch_size, neg_samples) -> None:
        super().bind(data, batch_size, neg_samples)
        users, items = self._examples
        keep = self._sampler.free[users] > 0
        if not np.all(keep):
            logging.getLogger(__name__).info(
                "skipping %d positives of fully-saturated users", int((~keep).sum()))
            self._examples = (users[keep], items[keep])

    def score_matrix(self, users):
        users = base.checked_users(users, self.params["user_factors"].shape[0])
        return self.params["user_factors"][users] @ self.params["item_factors"].T


class Cml(_SampledPairs):
    """Collaborative metric learning: hinge on squared distances with all
    embedding rows projected into the unit ball after every step."""

    names = ("cml",)
    required = ("k", "margin")
    neg_samples = 4

    def __init__(self, n_users: int, n_items: int, k: int, margin: float = 0.5, seed: int = 0):
        if margin <= 0:
            raise GradrecError(f"margin must be > 0, got {margin}")
        rng = np.random.default_rng(seed)
        self.margin = margin
        self.params: dict[str, Array] = {
            "user_points": base.init_normal(rng, n_users, k),
            "item_points": base.init_normal(rng, n_items, k),
        }

    @classmethod
    def settings(cls, cfg) -> dict:
        return {"margin": cfg.model.margin}

    def build_loss(self, leaves: dict[str, E.Node], batch) -> E.Node:
        """``batch`` is (users, positives, negatives) with one row of
        negatives per positive; the hinge is summed over the sampled
        pairs and averaged per positive."""
        n_pos = len(batch[0])
        users, pos, neg = _triplets(*batch)
        uu = E.embedding_lookup(leaves["user_points"], users)
        vi = E.embedding_lookup(leaves["item_points"], pos)
        vj = E.embedding_lookup(leaves["item_points"], neg)
        d_pos = E.sq_l2_dist(uu, vi)
        d_neg = E.sq_l2_dist(uu, vj)
        return (self.margin + d_pos - d_neg).relu().sum() * (1.0 / n_pos)

    def project(self) -> None:
        for name in ("user_points", "item_points"):
            self.params[name] = base.clip_rows_to_ball(self.params[name], 1.0)

    def score_matrix(self, users):
        users = base.checked_users(users, self.params["user_points"].shape[0])
        return -base.sq_dists(self.params["user_points"][users], self.params["item_points"])


class NeuMf(_SampledPairs):
    """GMF, MLP and their fused NeuMF variant over shared parameter
    storage; the variant decides which parts the graph (and therefore
    training) touches."""

    VARIANTS = names = ("gmf", "mlp", "neumf")
    defaults = {"layers": None}  # derived from k: [k, k // 2]
    neg_samples = 4

    def __init__(self, n_users: int, n_items: int, k: int, variant: str = "neumf",
                 layers: list[int] | None = None, seed: int = 0):
        if variant not in self.VARIANTS:
            raise GradrecError(f"unknown variant {variant!r}")
        if layers is None:
            layers = [k, max(1, k // 2)]
        rng = np.random.default_rng(seed)
        self.variant = variant
        self.layers = list(layers)
        self.params: dict[str, Array] = {
            "gmf_user": base.init_normal(rng, n_users, k),
            "gmf_item": base.init_normal(rng, n_items, k),
            "gmf_out": base.init_normal(rng, k),
        }
        sizes = [2 * k] + self.layers
        for n, (d_in, d_out) in enumerate(zip(sizes, sizes[1:]), start=1):
            self.params[f"mlp_w{n}"] = base.init_layer(rng, d_in, d_in, d_out)
            self.params[f"mlp_b{n}"] = np.zeros(d_out)
        self.params["mlp_user"] = base.init_normal(rng, n_users, k)
        self.params["mlp_item"] = base.init_normal(rng, n_items, k)
        self.params["mlp_out_w"] = base.init_layer(rng, self.layers[-1], self.layers[-1])
        self.params["mlp_out_b"] = np.asarray(0.0)
        self.params["fusion_w"] = base.init_layer(rng, k + self.layers[-1],
                                                  k + self.layers[-1])
        self.params["fusion_b"] = np.asarray(0.0)

    @classmethod
    def settings(cls, cfg) -> dict:
        m = cfg.model
        return {"variant": m.name,
                "layers": m.layers if m.layers is not None else [m.k, max(1, m.k // 2)]}

    @classmethod
    def config_issues(cls, m) -> list[str]:
        if m.name == "gmf" and m.layers is not None:
            return ["[model] key 'layers' does not apply to model 'gmf'"]
        return []

    def _mlp_tower(self, leaves, users: Array, items: Array) -> E.Node:
        x = E.concat([E.embedding_lookup(leaves["mlp_user"], users),
                      E.embedding_lookup(leaves["mlp_item"], items)], axis=1)
        for n in range(1, len(self.layers) + 1):
            x = (E.matmul(x, leaves[f"mlp_w{n}"]) + leaves[f"mlp_b{n}"]).relu()
        return x

    def logits(self, leaves, users: Array, items: Array) -> E.Node:
        """The GMF head, the MLP head or, for neumf, the fusion of both parts."""
        if self.variant != "mlp":
            prod = (E.embedding_lookup(leaves["gmf_user"], users)
                    * E.embedding_lookup(leaves["gmf_item"], items))
            if self.variant == "gmf":
                return E.matmul(prod, leaves["gmf_out"])
        hidden = self._mlp_tower(leaves, users, items)
        if self.variant == "mlp":
            return E.matmul(hidden, leaves["mlp_out_w"]) + leaves["mlp_out_b"]
        return E.matmul(E.concat([prod, hidden], axis=1), leaves["fusion_w"]) + leaves["fusion_b"]

    def build_loss(self, leaves, batch) -> E.Node:
        """``batch`` is (users, items, labels): positives and sampled
        negatives, labelled 1 and 0."""
        users, items, labels = batch
        return base.bce_from_logits(self.logits(leaves, users, items), labels)

    def batches(self, rng):
        # the whole epoch's negatives are drawn before the shuffle
        users, items = self._examples
        neg = self._neg
        negs = self._sampler.draw_many(users, neg, rng)
        all_users = np.concatenate([users, np.repeat(users, neg)])
        all_items = np.concatenate([items, negs.ravel()])
        all_labels = np.concatenate([np.ones(users.size), np.zeros(users.size * neg)])
        for idx in base.minibatches(all_users.size, self._batch_size, rng):
            yield idx.size, (all_users[idx], all_items[idx], all_labels[idx])

    def score_matrix(self, users):
        """The sigmoid of ``logits`` on every (user, item) pair, PAIR_BLOCK per graph."""
        n_items = self.params["gmf_item"].shape[0]
        users = base.checked_users(users, self.params["gmf_user"].shape[0])
        pair_users = np.repeat(users, n_items)
        pair_items = np.tile(np.arange(n_items), len(users))
        leaves = self.const_leaves()
        z = np.concatenate([self.logits(leaves, pair_users[lo:lo + base.PAIR_BLOCK],
                                        pair_items[lo:lo + base.PAIR_BLOCK]).value
                            for lo in range(0, pair_users.size, base.PAIR_BLOCK)])
        return np.exp(-np.logaddexp(0.0, -z)).reshape(len(users), n_items)


class Cdae(base.Model):
    """Denoising autoencoder over a user's preference vector with a
    per-user input node; trained on observed positives plus sampled
    negatives from the corrupted input, one user per step."""

    names = ("cdae",)
    task = "ranking"
    required = ("k", "dropout_q")
    neg_samples = 4
    batched = False

    def __init__(self, n_users: int, n_items: int, hidden: int, corruption: float = 0.5,
                 seed: int = 0):
        if not 0.0 <= corruption < 1.0:
            raise GradrecError(f"corruption probability must be in [0, 1), got {corruption}")
        rng = np.random.default_rng(seed)
        self.corruption = corruption
        self.params: dict[str, Array] = {
            "encoder_w": base.init_normal(rng, n_items, hidden),
            "user_embed": base.init_normal(rng, n_users, hidden),
            "hidden_bias": np.zeros(hidden),
            "decoder_w": base.init_normal(rng, n_items, hidden),  # row per item
            "decoder_bias": np.zeros(n_items),
        }
        self._inputs = np.zeros((n_users, n_items), dtype=bool)  # train items per user

    @classmethod
    def settings(cls, cfg) -> dict:
        return {"corruption": cfg.model.dropout_q}

    @property
    def n_items(self) -> int:
        return self.params["decoder_bias"].shape[0]

    def build_loss(self, leaves, batch) -> E.Node:
        """``batch`` is (user, corrupted preference vector, target items,
        labels)."""
        user, corrupted, target_items, labels = batch
        z = (E.matmul(E.const(corrupted), leaves["encoder_w"])
             + E.embedding_lookup(leaves["user_embed"], [user]).reshape(
                 (leaves["hidden_bias"].value.shape[0],))
             + leaves["hidden_bias"]).sigmoid()
        logits = (E.matmul(E.embedding_lookup(leaves["decoder_w"], target_items), z)
                  + E.embedding_lookup(leaves["decoder_bias"], target_items))
        return base.bce_from_logits(logits, labels)

    def serve(self, data) -> None:
        """Every user's uncorrupted input vector: ones at its train items."""
        train = data["train"]
        if train.n_items != self.n_items:
            raise GradrecError(f"preference vectors must have length {self.n_items}, "
                               f"got {train.n_items} items")
        super().serve(data)
        self._inputs = np.zeros((self.params["user_embed"].shape[0], self.n_items), dtype=bool)
        self._inputs[train.users, train.items] = True

    def bind(self, data, batch_size, neg_samples) -> None:
        self._users = np.flatnonzero(self._inputs.any(axis=1))
        if not self._users.size:
            raise GradrecError("empty training set")
        self._sampler = base.NegativeSampler(data["train"])
        self._neg = neg_samples

    def batches(self, rng):
        for user in self._users[rng.permutation(self._users.size)]:
            user = int(user)
            vec = self._inputs[user].astype(np.float64)
            observed = np.flatnonzero(vec)
            if self.corruption > 0.0:
                dropped = rng.random(observed.size) < self.corruption
                vec[observed[dropped]] = 0.0
                vec[observed[~dropped]] = 1.0 / (1.0 - self.corruption)
            negatives = self._sampler.draw(user, self._neg * observed.size, rng)
            targets = np.concatenate([observed, negatives])
            labels = np.concatenate([np.ones(observed.size), np.zeros(negatives.size)])
            yield 1, (user, vec, targets, labels)

    def score_matrix(self, users):
        """Decoder probabilities from each user's uncorrupted input vector
        (zeros for a user without train items)."""
        p, users = self.params, base.checked_users(users, self._inputs.shape[0])
        pre = self._inputs[users] @ p["encoder_w"] + p["user_embed"][users] + p["hidden_bias"]
        z = 1.0 / (1.0 + np.exp(-pre))
        logits = z @ p["decoder_w"].T + p["decoder_bias"]
        return 1.0 / (1.0 + np.exp(-logits))
