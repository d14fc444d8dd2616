"""Evaluation: RMSE/MAE for rating prediction, Precision/Recall/NDCG/MRR
for ranking, and the protocol that ranks each relevant item among a user's
candidates from ``score_matrix(users) -> (len(users), n_items)`` rows.

Conventions fixed here: binary gains, 1-based ranks with 1/log2(rank+1)
discount, macro (per-user) averaging over users with a non-empty relevant
set, MRR over the full candidate ranking, and score ties broken by
ascending item id so reports are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from gradrec.data import InteractionTable
from gradrec.errors import EvaluationError, GradrecError

ScoreRows = Callable[[np.ndarray], np.ndarray]

BLOCK = 64  # users per score_matrix call, relevant items per rank compare


@dataclass(frozen=True)
class FullRanking:
    """Rank every item the user has not consumed in train."""

    def describe(self) -> str:
        return "full"


@dataclass(frozen=True)
class SampledRanking:
    """Rank the user's test items against m seeded negative items."""

    m: int
    seed: int

    def describe(self) -> str:
        return f"sampled:{self.m}"


Protocol = FullRanking | SampledRanking


@dataclass
class RankingResult:
    user: int
    ranks: list[int]  # ascending 1-based ranks of the relevant items among the candidates
    n_relevant: int  # relevant items, ranked or not


@dataclass
class MetricReport:
    values: dict[str, float]
    protocol: str
    seed: int
    users: int
    order: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"protocol\t{self.protocol}", f"seed\t{self.seed}", f"users\t{self.users}"]
        names = self.order if self.order else sorted(self.values)
        lines += [f"{name}\t{self.values[name]:.6f}" for name in names]
        return "\n".join(lines) + "\n"


def rmse_mae(pairs: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Root mean squared error and mean absolute error over (predicted, actual)."""
    pairs = list(pairs)
    if not pairs:
        raise GradrecError("rmse_mae: empty prediction list")
    errs = np.array([p - a for p, a in pairs], dtype=np.float64)
    if not np.all(np.isfinite(errs)):
        raise EvaluationError("rmse_mae: non-finite prediction or target")
    return float(np.sqrt(np.mean(errs * errs))), float(np.mean(np.abs(errs)))


def _ideal_dcg(n_relevant: int, cutoff: int) -> float:
    return sum(1.0 / math.log2(r + 1) for r in range(1, min(n_relevant, cutoff) + 1))


def ranking_metrics(result: RankingResult, cutoffs: list[int]) -> dict[str, float]:
    """Precision/Recall/NDCG at each cutoff plus MRR over the full ranking."""
    if not result.n_relevant:
        raise GradrecError(f"user {result.user} has an empty relevant set")
    if any(n < 1 for n in cutoffs):
        raise GradrecError(f"cutoffs must be >= 1, got {cutoffs}")
    out: dict[str, float] = {}
    for n in cutoffs:
        top = [rank for rank in result.ranks if rank <= n]
        out[f"precision@{n}"] = len(top) / n
        out[f"recall@{n}"] = len(top) / result.n_relevant
        dcg = sum(1.0 / math.log2(rank + 1) for rank in top)
        out[f"ndcg@{n}"] = dcg / _ideal_dcg(result.n_relevant, n)
    out["mrr"] = 1.0 / result.ranks[0] if result.ranks else 0.0
    return out


def metric_order(cutoffs: list[int]) -> list[str]:
    names = []
    for n in sorted(cutoffs):
        names += [f"precision@{n}", f"recall@{n}", f"ndcg@{n}"]
    return names + ["mrr"]


def rank_candidates(users: np.ndarray, scores: np.ndarray, candidates: np.ndarray,
                    relevant: np.ndarray) -> np.ndarray:
    """1-based ranks, in row-major order, of the ``relevant`` (B, n_items)
    mask's candidates among the ``candidates`` mask of their row of
    ``scores``, the rows of ``users``: item i with score s ranks 1 + #{j:
    s_j > s or s_j == s, j < i}, the (-score, item id) order. A non-finite
    candidate score raises; other scores are never read."""
    bad = candidates & ~np.isfinite(scores)
    if bad.any():
        row, item = divmod(int(np.argmax(bad)), scores.shape[1])
        raise EvaluationError(f"non-finite score for user {users[row]}, item {item}")
    rows, items = np.nonzero(relevant & candidates)
    ranks = np.empty(rows.size, dtype=np.int64)
    ids = np.arange(scores.shape[1])
    for lo in range(0, rows.size, BLOCK):
        r, i = rows[lo:lo + BLOCK], items[lo:lo + BLOCK]
        row_scores = scores[r]
        own = row_scores[np.arange(r.size), i][:, None]
        ahead = (row_scores > own) | ((row_scores == own) & (ids < i[:, None]))
        ahead &= candidates[r]
        ranks[lo:lo + BLOCK] = 1 + np.count_nonzero(ahead, axis=1)
    return ranks


def evaluate_ranking(score_rows: ScoreRows, train: InteractionTable, test: InteractionTable,
                     protocol: Protocol, cutoffs: list[int],
                     seed_echo: int | None = None) -> MetricReport:
    """Macro-averaged ranking metrics under the full protocol (candidates:
    the items not consumed in train) or the sampled one (the relevant items
    plus m negatives from the rest, one RNG stream per user). Users with
    test rows are scored ``BLOCK`` at a time in ascending id."""
    if any(n < 1 for n in cutoffs):
        raise GradrecError(f"cutoffs must be >= 1, got {cutoffs}")
    users = np.unique(test.users)
    if users.size == 0:
        raise GradrecError("no users could be evaluated")
    order, bounds = train.user_rows()
    train_items, train_bounds = train.items[order], bounds.tolist()  # grouped by user
    order, bounds = test.user_rows()
    test_items, test_bounds = test.items[order], bounds.tolist()
    sums: dict[str, float] = {}
    for lo in range(0, users.size, BLOCK):
        block = users[lo:lo + BLOCK]
        consumed = np.zeros((block.size, train.n_items), dtype=bool)
        relevant = np.zeros_like(consumed)
        for row, user in enumerate(block.tolist()):
            consumed[row, train_items[train_bounds[user]:train_bounds[user + 1]]] = True
            relevant[row, test_items[test_bounds[user]:test_bounds[user + 1]]] = True
        if isinstance(protocol, FullRanking):
            candidates = ~consumed
        else:
            candidates = relevant.copy()
            free = ~(consumed | relevant)
            for row, user in enumerate(block.tolist()):
                rng = np.random.default_rng([protocol.seed, user])
                pool = np.flatnonzero(free[row])
                m = min(protocol.m, pool.size)
                candidates[row, rng.choice(pool, size=m, replace=False)] = True
        ranks = rank_candidates(block, score_rows(block), candidates, relevant)
        rows = np.nonzero(relevant & candidates)[0]  # the row of each rank
        for row, (user, n_relevant) in enumerate(zip(block.tolist(),
                                                     relevant.sum(axis=1).tolist())):
            result = RankingResult(user, sorted(ranks[rows == row].tolist()), n_relevant)
            for name, value in ranking_metrics(result, cutoffs).items():
                sums[name] = sums.get(name, 0.0) + value
    values = {name: sums[name] / users.size for name in sums}
    seed = seed_echo if seed_echo is not None else getattr(protocol, "seed", 0)
    return MetricReport(values=values, protocol=protocol.describe(), seed=seed,
                        users=users.size, order=metric_order(cutoffs))


def pair_scores(score_rows: ScoreRows, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """``score_rows([u])[0, i]`` for each (u, i) pair; every distinct user
    is scored once, ``BLOCK`` users per call."""
    distinct, inverse = np.unique(users, return_inverse=True)
    out = np.empty(users.size)
    for lo in range(0, distinct.size, BLOCK):
        sel = np.flatnonzero((inverse >= lo) & (inverse < lo + BLOCK))
        out[sel] = score_rows(distinct[lo:lo + BLOCK])[inverse[sel] - lo, items[sel]]
    return out


def rating_report(pairs: Iterable[tuple[float, float]], seed: int, users: int) -> MetricReport:
    rmse, mae = rmse_mae(pairs)
    return MetricReport(values={"rmse": rmse, "mae": mae}, protocol="rating",
                        seed=seed, users=users, order=["rmse", "mae"])
