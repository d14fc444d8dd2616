"""Shared pieces for the model implementations: initialization, graph
helpers, the negative sampler, the :class:`Model` interface every model
declares, and :func:`train`, the one training loop."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from gradrec import engine as E
from gradrec.data import InteractionTable
from gradrec.errors import GradrecError, TrainingDivergedError

if TYPE_CHECKING:
    from gradrec.config import ExperimentConfig, ModelConfig

Array = np.ndarray

INIT_SCALE = 0.01  # embeddings and weights start at Normal(0, 0.01^2)
PAIR_BLOCK = 4096  # rows per scoring graph of the models that score pairs on the tape


def init_normal(rng: np.random.Generator, *shape: int) -> Array:
    return rng.normal(0.0, INIT_SCALE, size=shape)


def init_layer(rng: np.random.Generator, fan_in: int, *shape: int) -> Array:
    """Fan-in-scaled init for relu layer weights.

    The flat Normal(0, 0.01^2) used for embeddings starves deep towers:
    activations shrink geometrically and the loss cannot be driven down
    within a sane epoch budget, so dense layers scale with sqrt(2/fan_in).
    """
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def row_sq_norm(x: E.Node) -> E.Node:
    """Per-row squared L2 norm of a (B, k) node, shape (B,)."""
    return (x * x).sum(axis=1)


def bce_from_logits(logits: E.Node, labels: Array) -> E.Node:
    """Mean binary cross-entropy, computed stably from logits:
    softplus(z) - y*z."""
    y = E.const(np.asarray(labels, dtype=np.float64))
    return (logits.softplus() - y * logits).mean()


def gradient_step(params: dict[str, Array], build_loss, optimizer,
                  epoch: int, step: int) -> float:
    """One tape build / backward / optimizer step.

    ``build_loss`` receives a fresh leaf for every parameter; the optimizer
    steps those the loss reaches, in ``params`` order, and ``params`` takes
    the stepped arrays in place. The loss value is returned for tracing; a
    non-finite one raises :class:`TrainingDivergedError` before any parameter changes.
    """
    leaves = {name: E.param(value, name) for name, value in params.items()}
    loss = build_loss(leaves)
    value = float(loss.value)
    if not np.isfinite(value):
        raise TrainingDivergedError(epoch, step, value)
    reached = E.backward(loss)
    grads = {name: reached[leaf] for name, leaf in leaves.items() if leaf in reached}
    params.update(optimizer.step({n: params[n] for n in grads}, grads))
    return value


def minibatches(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[Array]:
    """Seeded shuffled index batches covering range(n)."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


class NegativeSampler:
    """Uniform sampling over each user's unconsumed items.

    Only the consumed pairs are stored, sorted by user then item. For the
    j-th consumed item c_j of user u, c_j - j free items come before it,
    so the r-th free item is r plus the number of j with c_j - j <= r: one
    ``searchsorted`` over the keys ``u*(n_items+1) + c_j - j``, which are
    ascending and never cross into another user's range. Every draw picks
    r with one ``rng.integers`` call, so a batch consumes the stream
    exactly as one call per row would.
    """

    def __init__(self, table: InteractionTable):
        self.n_items = n_items = table.n_items
        pairs = np.unique(table.users * n_items + table.items)
        users, items = np.divmod(pairs, n_items)
        counts = np.bincount(users, minlength=table.n_users)
        self.free = n_items - counts  # unconsumed items per user
        self._starts = np.cumsum(counts) - counts
        ranks = np.arange(pairs.size) - self._starts[users]
        self._keys = users * (n_items + 1) + items - ranks

    def draw(self, user: int, k: int, rng: np.random.Generator) -> Array:
        """k negatives for one user; shape (k,)."""
        return self.draw_many(np.array([user]), k, rng)[0]

    def draw_many(self, users: Array, k: int, rng: np.random.Generator) -> Array:
        """One row of k negatives per user; shape (len(users), k)."""
        users = np.asarray(users, dtype=np.int64)
        sizes = self.free[users]
        if not sizes.all():
            user = int(users[np.argmin(sizes)])
            raise GradrecError(f"user {user} has consumed every item; nothing to sample")
        ranks = rng.integers(0, sizes[:, None], size=(users.size, k))
        keys = users[:, None] * (self.n_items + 1) + ranks
        return ranks + np.searchsorted(self._keys, keys, side="right") - self._starts[users, None]


def sq_dists(a: Array, b: Array) -> Array:
    """Squared L2 distances of the rows of ``a`` (B, k) to those of ``b``
    (n, k), shape (B, n): |a|^2 - 2 a.b + |b|^2 floored at 0, one matmul."""
    out = a @ b.T
    out *= -2.0
    out += (a * a).sum(axis=1)[:, None]
    out += (b * b).sum(axis=1)
    return np.maximum(out, 0.0, out=out)


def checked_users(users, n_users: int) -> Array:
    """``users`` as int64 ids; one outside [0, n_users) raises IndexError
    where numpy indexing would wrap a negative one around."""
    users = np.asarray(users, dtype=np.int64)
    if users.size and not 0 <= users.min() <= users.max() < n_users:
        raise IndexError(f"user ids must be in [0, {n_users})")
    return users


def clip_rows_to_ball(arr: Array, radius: float = 1.0) -> Array:
    """Rescale rows with norm > radius back onto the sphere."""
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return arr * scale


class Model:
    """What every model declares. The registry (``gradrec.models.MODELS``),
    the config validator, the runner and :func:`train` read nothing else.

    Class attributes:

    * ``names`` -- the ``[model] name`` values the class serves.
    * ``task`` -- ``"rating"``, ``"ranking"`` or ``"sequential"``.
    * ``required`` -- ``[model]`` keys besides ``name`` that must be given.
    * ``defaults`` -- the optional ``[model]`` keys, each with the value it
      takes when absent (None: the model derives it).
    * ``neg_samples`` -- sampled negatives per positive when ``[train]
      neg_samples`` is absent; None for models that read no such count,
      which then reject the key.
    * ``batched`` -- whether training reads ``[train] batch_size``.
    """

    names: tuple[str, ...] = ()
    task = ""
    required: tuple[str, ...] = ("k",)
    defaults: dict[str, Any] = {}
    neg_samples: int | None = None
    batched = True
    params: dict[str, Array]
    train_table: InteractionTable | None = None  # set by serve; libfm rows have none
    test_table: InteractionTable | None = None  # the same bundle's test split
    _row: tuple[int, Array] | None = None  # (user, score_matrix row) behind score

    @classmethod
    def settings(cls, cfg: ExperimentConfig) -> dict[str, Any]:
        """Constructor arguments other than sizes and seed. The model
        stores each under the same attribute name, which is how
        :meth:`restore` sets them."""
        return {}

    @classmethod
    def config_issues(cls, m: ModelConfig) -> list[str]:
        """Problems with ``[model]`` values beyond the declared keys."""
        return []

    @classmethod
    def for_table(cls, table: InteractionTable, k: int, *, seed: int, **settings) -> "Model":
        """A fresh model sized for ``table``."""
        return cls(table.n_users, table.n_items, k, **settings, seed=seed)

    @classmethod
    def create(cls, cfg: ExperimentConfig, data: dict) -> "Model":
        """A fresh model sized for the training data in the bundle."""
        return cls.for_table(data["train"], cfg.model.k, seed=cfg.train.seed, **cls.settings(cfg))

    @classmethod
    def restore(cls, params: dict[str, Array], cfg: ExperimentConfig) -> "Model":
        """A model around checkpointed tensors; :meth:`serve` then attaches
        the state that lives outside them."""
        model = cls.__new__(cls)
        vars(model).update(cls.settings(cfg))
        model.params = params
        return model

    def serve(self, data: dict) -> None:
        """Attach the state that scoring (and for some models training)
        reads, derived from ``data["train"]`` alone, and keep that table and
        ``data["test"]`` for ``runner.checkpoint_tensors``. Overrides call
        this to drop the score cache."""
        self.train_table = data.get("train")
        self.test_table = data.get("test")
        self._row = None

    def bind(self, data: dict, batch_size: int | None, neg_samples: int | None) -> None:
        """Take the training examples (and a sampler) from the bundle."""
        raise NotImplementedError

    def batches(self, rng: np.random.Generator) -> Iterator[tuple[int, Any]]:
        """One epoch of (example count, batch) pairs, in training order."""
        raise NotImplementedError

    def build_loss(self, leaves: dict[str, E.Node], batch) -> E.Node:
        raise NotImplementedError

    def project(self) -> None:
        """Restore invariants an optimizer step may break; nothing by default."""

    def after_step(self) -> None:
        """:meth:`project`, then drop the score cache."""
        self.project()
        self._row = None

    def const_leaves(self) -> dict[str, E.Node]:
        """The parameters as constant leaves: the training graph's pieces
        then compute scores without anything to differentiate."""
        return {name: E.const(value) for name, value in self.params.items()}

    def score_matrix(self, users: Array) -> Array:
        """The score of every item for each of ``users``, shape
        (len(users), n_items), float64; higher ranks first. Rating models
        score with their served (clipped) predictions. Evaluation,
        ``recommend`` and :meth:`score` read nothing else."""
        raise NotImplementedError

    def score(self, user: int, item: int) -> float:
        """One entry of ``score_matrix([user])``, from a one-row cache that
        :meth:`serve` and :meth:`after_step` drop."""
        try:
            if item < 0:  # numpy would wrap it around; score_matrix checks users
                raise IndexError
            if self._row is None or self._row[0] != user:
                self._row = (user, self.score_matrix(np.array([user]))[0])
            return float(self._row[1][item])
        except IndexError:
            raise GradrecError(f"id out of range: user={user}, item={item}") from None

    predict = score  # rating models' name for the same entry


def train(model: Model, data: dict, optimizer, epochs: int, batch_size: int | None = None, *,
          seed: int, neg_samples: int | None = None,
          on_step: Callable[[dict[str, Array]], None] | None = None) -> list[float]:
    """Fit ``model`` on a data bundle and return one loss per epoch.

    ``data`` holds the entries of ``runner.prepare_data``'s bundle that the
    model reads (``train``, ``sequences`` or ``train_rows``). Every batch is
    one ``gradient_step``, then ``model.after_step()``, then
    ``on_step(model.params)``. An epoch's loss is the mean of its step
    losses weighted by the examples in each step. ``neg_samples`` falls
    back to the model's default.
    """
    model.serve(data)
    model.bind(data, batch_size, model.neg_samples if neg_samples is None else neg_samples)
    rng = np.random.default_rng(seed)
    trace = []
    step = 0
    for epoch in range(epochs):
        total, seen = 0.0, 0
        for size, batch in model.batches(rng):
            # looked up at call time, so a wrapped gradient_step sees every step
            value = gradient_step(model.params, lambda leaves: model.build_loss(leaves, batch),
                                  optimizer, epoch, step)
            model.after_step()
            if on_step is not None:
                on_step(model.params)
            total += value * size
            seen += size
            step += 1
        trace.append(total / seen)
    return trace
