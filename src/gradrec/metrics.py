"""Evaluation: RMSE/MAE for rating prediction, Precision/Recall/NDCG/MRR
for ranking, and the protocol that turns a scoring function into per-user
ranked lists.

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

ScoreFn = Callable[[int, int], float]


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
    ranked: list[int]  # candidate item ids, best first
    relevant: set[int]


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
    if not result.relevant:
        raise GradrecError(f"user {result.user} has an empty relevant set")
    if any(n < 1 for n in cutoffs):
        raise GradrecError(f"cutoffs must be >= 1, got {cutoffs}")
    out: dict[str, float] = {}
    for n in cutoffs:
        top = result.ranked[:n]
        hits = sum(1 for item in top if item in result.relevant)
        out[f"precision@{n}"] = hits / n
        out[f"recall@{n}"] = hits / len(result.relevant)
        dcg = sum(1.0 / math.log2(rank + 1)
                  for rank, item in enumerate(top, start=1) if item in result.relevant)
        out[f"ndcg@{n}"] = dcg / _ideal_dcg(len(result.relevant), n)
    mrr = 0.0
    for rank, item in enumerate(result.ranked, start=1):
        if item in result.relevant:
            mrr = 1.0 / rank
            break
    out["mrr"] = mrr
    return out


def metric_order(cutoffs: list[int]) -> list[str]:
    names = []
    for n in sorted(cutoffs):
        names += [f"precision@{n}", f"recall@{n}", f"ndcg@{n}"]
    return names + ["mrr"]


def rank_candidates(score_fn: ScoreFn, user: int, candidates: Iterable[int]) -> list[int]:
    """Sort candidates by descending score, ties by ascending item id."""
    scored = []
    for item in candidates:
        s = float(score_fn(user, item))
        if not math.isfinite(s):
            raise EvaluationError(f"non-finite score for user {user}, item {item}")
        scored.append((-s, item))
    scored.sort()
    return [item for _, item in scored]


def evaluate_ranking(score_fn: ScoreFn, train: InteractionTable, test: InteractionTable,
                     protocol: Protocol, cutoffs: list[int],
                     seed_echo: int | None = None) -> MetricReport:
    """Macro-averaged ranking metrics under the full or sampled protocol.

    Users with test rows are processed in ascending dense id with per-user
    RNG streams, so the report does not depend on evaluation order.
    """
    if any(n < 1 for n in cutoffs):
        raise GradrecError(f"cutoffs must be >= 1, got {cutoffs}")
    train_rows, train_bounds = train.user_rows()
    test_rows, test_bounds = test.user_rows()

    n_items = train.n_items
    sums: dict[str, float] = {}
    evaluated = 0
    for user in np.flatnonzero(np.diff(test_bounds)).tolist():
        relevant_items = test.items[test_rows[test_bounds[user]:test_bounds[user + 1]]]
        relevant = set(relevant_items.tolist())
        train_items = train.items[train_rows[train_bounds[user]:train_bounds[user + 1]]]
        if isinstance(protocol, FullRanking):
            consumed = np.zeros(n_items, dtype=bool)
            consumed[train_items] = True
            candidates = np.flatnonzero(~consumed).tolist()
        else:
            rng = np.random.default_rng([protocol.seed, user])
            blocked = np.zeros(n_items, dtype=bool)
            blocked[train_items] = True
            blocked[relevant_items] = True
            pool = np.flatnonzero(~blocked)
            m = min(protocol.m, pool.size)
            negatives = rng.choice(pool, size=m, replace=False)
            candidates = sorted(relevant) + negatives.tolist()
        ranked = rank_candidates(score_fn, user, candidates)
        per_user = ranking_metrics(RankingResult(user, ranked, relevant), cutoffs)
        for name, value in per_user.items():
            sums[name] = sums.get(name, 0.0) + value
        evaluated += 1

    if evaluated == 0:
        raise GradrecError("no users could be evaluated")
    values = {name: sums[name] / evaluated for name in sums}
    seed = seed_echo if seed_echo is not None else getattr(protocol, "seed", 0)
    return MetricReport(values=values, protocol=protocol.describe(), seed=seed,
                        users=evaluated, order=metric_order(cutoffs))


def rating_report(pairs: Iterable[tuple[float, float]], seed: int, users: int) -> MetricReport:
    rmse, mae = rmse_mae(pairs)
    return MetricReport(values={"rmse": rmse, "mae": mae}, protocol="rating",
                        seed=seed, users=users, order=["rmse", "mae"])
