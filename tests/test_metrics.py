import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradrec import data, metrics
from gradrec.errors import EvaluationError, GradrecError

from conftest import consumed, ranking_result, score_rows


# --------------------------------------------------------------------------
# deliberately naive reference implementations, kept independent of
# gradrec.metrics: everything is recomputed from first definitions
# --------------------------------------------------------------------------


def oracle_rmse_mae(pairs):
    se = [(p - a) ** 2 for p, a in pairs]
    ae = [abs(p - a) for p, a in pairs]
    return math.sqrt(sum(se) / len(se)), sum(ae) / len(ae)


def oracle_user_metrics(ranked, relevant, cutoffs):
    out = {}
    for n in cutoffs:
        hits = len([x for x in ranked[:n] if x in relevant])
        out[f"precision@{n}"] = hits / n
        out[f"recall@{n}"] = hits / len(relevant)
        dcg = 0.0
        for rank, item in enumerate(ranked[:n], 1):
            if item in relevant:
                dcg += 1.0 / math.log2(rank + 1)
        ideal = 0.0
        for r in range(1, min(len(relevant), n) + 1):
            ideal += 1.0 / math.log2(r + 1)
        out[f"ndcg@{n}"] = dcg / ideal
    out["mrr"] = 0.0
    for rank, item in enumerate(ranked, 1):
        if item in relevant:
            out["mrr"] = 1.0 / rank
            break
    return out


def oracle_full_evaluation(scores, train_items, test_items, n_items, cutoffs):
    """scores: dict (user, item) -> value; returns macro averages in user order."""
    sums, count = {}, 0
    for user in sorted(test_items):
        relevant = test_items[user]
        if not relevant:
            continue
        cands = [i for i in range(n_items) if i not in train_items.get(user, set())]
        ranked = [i for _, i in sorted(((-scores[(user, i)], i) for i in cands))]
        per = oracle_user_metrics(ranked, relevant, cutoffs)
        for k, v in per.items():
            sums[k] = sums.get(k, 0.0) + v
        count += 1
    return {k: v / count for k, v in sums.items()}, count


def reference_rank_candidates(score_fn, user, candidates):
    """Sort candidates by descending score, ties by ascending item id."""
    scored = []
    for item in candidates:
        s = float(score_fn(user, item))
        if not math.isfinite(s):
            raise EvaluationError(f"non-finite score for user {user}, item {item}")
        scored.append((-s, item))
    scored.sort()
    return [item for _, item in scored]


def reference_ranking_metrics(user, ranked, relevant, cutoffs):
    if not relevant:
        raise GradrecError(f"user {user} has an empty relevant set")
    out = {}
    for n in cutoffs:
        top = ranked[:n]
        hits = sum(1 for item in top if item in relevant)
        out[f"precision@{n}"] = hits / n
        out[f"recall@{n}"] = hits / len(relevant)
        # explicit left-to-right sums: built-in sum() compensates on Python >= 3.12
        dcg = 0.0
        for rank, item in enumerate(top, start=1):
            if item in relevant:
                dcg += 1.0 / math.log2(rank + 1)
        ideal = 0.0
        for r in range(1, min(len(relevant), n) + 1):
            ideal += 1.0 / math.log2(r + 1)
        out[f"ndcg@{n}"] = dcg / ideal
    mrr = 0.0
    for rank, item in enumerate(ranked, start=1):
        if item in relevant:
            mrr = 1.0 / rank
            break
    out["mrr"] = mrr
    return out


def reference_evaluate_ranking(score_fn, train, test, protocol, cutoffs):
    """The per-user loop that ranked with one score call per candidate and a
    list sort: the report every blocked evaluation must reproduce bit for bit."""
    train_items, test_items = consumed(train), consumed(test)
    n_items = train.n_items
    sums, evaluated, drawn = {}, 0, []
    for user in sorted(test_items):
        relevant = test_items[user]
        seen = np.array(sorted(train_items.get(user, ())), dtype=np.int64)
        if isinstance(protocol, metrics.FullRanking):
            free = np.ones(n_items, dtype=bool)
            free[seen] = False
            candidates = np.flatnonzero(free).tolist()
        else:
            rng = np.random.default_rng([protocol.seed, user])
            blocked = np.zeros(n_items, dtype=bool)
            blocked[seen] = True
            blocked[sorted(relevant)] = True
            pool = np.flatnonzero(~blocked)
            negatives = rng.choice(pool, size=min(protocol.m, pool.size), replace=False)
            candidates = sorted(relevant) + negatives.tolist()
            drawn.append(negatives.size)
        ranked = reference_rank_candidates(score_fn, user, candidates)
        for name, value in reference_ranking_metrics(user, ranked, relevant, cutoffs).items():
            sums[name] = sums.get(name, 0.0) + value
        evaluated += 1
    return metrics.MetricReport(values={k: v / evaluated for k, v in sums.items()},
                                protocol=protocol.describe(), seed=getattr(protocol, "seed", 0),
                                users=evaluated, order=metrics.metric_order(cutoffs),
                                drawn=((min(drawn), float(np.median(drawn)))
                                       if drawn and min(drawn) < protocol.m else None))


def table_from(entries):
    lines = "\n".join(f"{u}\t{i}\t{r}\t{t}" for u, i, r, t in entries)
    import os, tempfile
    fd, path = tempfile.mkstemp()
    with os.fdopen(fd, "w") as fh:
        fh.write(lines + "\n")
    try:
        return data.load_interactions(path)
    finally:
        os.unlink(path)


class TestRmseMae:
    def test_two_term_hand_computation(self):
        rmse, mae = metrics.rmse_mae([3, 4], [3, 2])
        assert rmse == pytest.approx(math.sqrt(2), abs=1e-12)
        assert mae == 1.0

    def test_perfect_predictions(self):
        assert metrics.rmse_mae([1.5, 4.0], [1.5, 4.0]) == (0.0, 0.0)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(17)
        pairs = [(float(p), float(a)) for p, a in rng.normal(3, 1.2, size=(100, 2))]
        got = metrics.rmse_mae(*zip(*pairs))
        want = oracle_rmse_mae(pairs)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(GradrecError):
            metrics.rmse_mae([], [])

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pairs = [(float(p), float(a)) for p, a in rng.normal(0, 2, size=(30, 2))]
            rmse, mae = metrics.rmse_mae(*zip(*pairs))
            assert rmse >= mae >= 0.0


class TestRankingMetrics:
    def test_single_relevant_at_rank_two(self):
        result = ranking_result([5, 9, 1, 2], {9})
        out = metrics.ranking_metrics(*result, [10])
        assert out["ndcg@10"] == pytest.approx(1 / math.log2(3), abs=1e-12)
        assert out["mrr"] == 0.5

    def test_hit_ratios(self):
        result = ranking_result([1, 2, 3, 4, 5, 6], {2, 4, 7, 8})
        out = metrics.ranking_metrics(*result, [5])
        assert out["precision@5"] == 0.4
        assert out["recall@5"] == 0.5

    def test_first_relevant_at_rank_four(self):
        result = ranking_result([1, 2, 3, 9], {9})
        assert metrics.ranking_metrics(*result, [2])["mrr"] == 0.25

    def test_absent_relevant_gives_zero_mrr(self):
        result = ranking_result([1, 2], {7})
        assert metrics.ranking_metrics(*result, [2])["mrr"] == 0.0

    def test_perfect_prefix_gives_unit_ndcg(self):
        result = ranking_result([7, 8, 1, 2], {7, 8})
        out = metrics.ranking_metrics(*result, [2, 4])
        assert out["ndcg@2"] == 1.0
        assert out["ndcg@4"] == 1.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(GradrecError):
            metrics.ranking_metrics(*ranking_result([1], set()), [1])

    def test_cutoff_below_one_rejected(self):
        with pytest.raises(GradrecError, match="cutoffs must be >= 1"):
            metrics.ranking_metrics(*ranking_result([1, 2], {2}), [0])

    @given(st.integers(2, 30), st.integers(1, 10), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_values_in_unit_interval(self, n_candidates, n_relevant, seed):
        rng = np.random.default_rng(seed)
        ranked = rng.permutation(n_candidates).tolist()
        relevant = set(rng.choice(n_candidates, size=min(n_relevant, n_candidates),
                                  replace=False).tolist())
        out = metrics.ranking_metrics(*ranking_result(ranked, relevant), [1, 3, 5])
        for name, value in out.items():
            assert 0.0 <= value <= 1.0, name
        for n in (1, 3, 5):
            # precision@n * n == recall@n * |relevant| (both count hits)
            assert out[f"precision@{n}"] * n == pytest.approx(
                out[f"recall@{n}"] * len(relevant), abs=1e-12)


def ranked_by(scores, candidates, user=0):
    """The candidates best first, read back from rank_candidates."""
    n = max(candidates) + 1
    row = np.zeros((1, n))
    row[0, list(scores)] = list(scores.values())
    mask = np.zeros((1, n), dtype=bool)
    mask[0, candidates] = True
    ranks = metrics.rank_candidates(np.array([user]), row, mask, *np.nonzero(mask))
    return [item for _, item in sorted(zip(ranks.tolist(), sorted(candidates)))]


class TestRankCandidates:
    def test_tie_broken_by_ascending_id(self):
        scores = {1: 0.9, 2: 0.9, 3: 0.1}
        ranked = ranked_by(scores, [3, 2, 1])
        assert ranked == [1, 2, 3]

    def test_non_finite_score_rejected(self):
        with pytest.raises(EvaluationError) as err:
            ranked_by({1: float("nan")}, [1], user=4)
        assert "user 4" in str(err.value)

    def test_ranks_exactly_the_pairs_given_in_their_order(self):
        rng = np.random.default_rng(21)
        scores = np.round(rng.normal(size=(5, 40)), 1)  # rounded, so some scores tie
        candidates = rng.random((5, 40)) < 0.7
        want = {}
        for row in range(5):
            ranked = reference_rank_candidates(lambda _, i: scores[row, i], row,
                                               np.flatnonzero(candidates[row]).tolist())
            want.update({(row, item): rank for rank, item in enumerate(ranked, start=1)})
        rows, items = np.nonzero(candidates)
        assert rows.size > metrics.BLOCK
        shuffled = rng.permutation(rows.size)
        for pick in (shuffled, shuffled[:rows.size // 3], shuffled[:0]):
            got = metrics.rank_candidates(np.arange(5), scores, candidates,
                                          rows[pick], items[pick])
            assert got.tolist() == [want[pair] for pair in zip(rows[pick].tolist(),
                                                               items[pick].tolist())]


class TestEvaluateRanking:
    def make_tables(self):
        train = table_from([("u0", "i0", 1, 1), ("u0", "i1", 1, 2),
                            ("u1", "i1", 1, 1), ("u1", "i2", 1, 2),
                            ("u2", "i0", 1, 1), ("u2", "i3", 1, 2),
                            ("u2", "i4", 1, 3), ("u3", "i5", 1, 1),
                            ("u4", "i2", 1, 1), ("u4", "i5", 1, 2)])
        # (user, item) = (0, 3), (1, 4), (2, 5), (3, 0), (4, 1)
        test = dataclasses.replace(train, users=np.arange(5), items=np.array([3, 4, 5, 0, 1]),
                                   ratings=np.ones(5), timestamps=np.full(5, 9))
        return train, test

    def test_oracle_scorer_gets_perfect_metrics(self):
        train, test = self.make_tables()
        relevant = {x.user: x.item for x in test.interactions}

        def score(u, i):
            return 1.0 if relevant[u] == i else 0.0

        report = metrics.evaluate_ranking(score_rows(score, 6), train, test,
                                          metrics.FullRanking(), [1])
        for name, value in report.values.items():
            assert value == 1.0, name

    def test_cutoff_below_one_rejected(self):
        train, test = self.make_tables()
        with pytest.raises(GradrecError, match="cutoffs must be >= 1"):
            metrics.evaluate_ranking(score_rows(lambda u, i: 0.0, 6), train, test,
                                     metrics.FullRanking(), [0])

    def test_matches_brute_force_oracle_exactly(self):
        train, test = self.make_tables()
        rng = np.random.default_rng(11)
        scores = {(u, i): float(rng.normal()) for u in range(5) for i in range(6)}

        rows = score_rows(lambda u, i: scores[(u, i)], 6)
        report = metrics.evaluate_ranking(rows, train, test, metrics.FullRanking(), [1, 3, 5])

        train_items = consumed(train)
        test_items = consumed(test)
        want, count = oracle_full_evaluation(scores, train_items, test_items, 6, [1, 3, 5])
        assert report.users == count
        assert set(report.values) == set(want)
        for name in want:
            assert report.values[name] == want[name], name  # bitwise

    def test_sampled_protocol_is_deterministic(self):
        train, test = self.make_tables()
        rng = np.random.default_rng(5)
        scores = {(u, i): float(rng.normal()) for u in range(5) for i in range(6)}
        proto = metrics.SampledRanking(m=2, seed=99)
        rows = score_rows(lambda u, i: scores[(u, i)], 6)
        a = metrics.evaluate_ranking(rows, train, test, proto, [3])
        b = metrics.evaluate_ranking(rows, train, test, proto, [3])
        assert a.values == b.values
        assert a.protocol == "sampled:2"

    def test_monotone_transform_invariance(self):
        train, test = self.make_tables()
        rng = np.random.default_rng(7)
        scores = {(u, i): float(rng.normal()) for u in range(5) for i in range(6)}
        base = metrics.evaluate_ranking(score_rows(lambda u, i: scores[(u, i)], 6), train,
                                        test, metrics.FullRanking(), [2, 4])
        warped = metrics.evaluate_ranking(
            score_rows(lambda u, i: math.exp(3 * scores[(u, i)]) + 1, 6),
            train, test, metrics.FullRanking(), [2, 4])
        assert base.values == warped.values

    def test_report_is_independent_of_user_processing_order(self):
        # the sampled protocol draws one rng stream per user, so per-user
        # results can be computed in any order and averaged ascending
        train, test = self.make_tables()
        rng = np.random.default_rng(13)
        scores = {(u, i): float(rng.normal()) for u in range(5) for i in range(6)}
        proto = metrics.SampledRanking(m=3, seed=17)
        rows = score_rows(lambda u, i: scores[(u, i)], 6)
        report = metrics.evaluate_ranking(rows, train, test, proto, [2])

        per_user = {}
        for user in reversed(range(5)):  # deliberately backwards
            single_test = test.take(np.flatnonzero(test.users == user))
            if len(single_test) == 0:
                continue
            one = metrics.evaluate_ranking(rows, train, single_test, proto, [2])
            per_user[user] = one.values
        for name in report.values:
            total = 0.0
            for u in sorted(per_user):
                total += per_user[u][name]
            assert report.values[name] == total / len(per_user), name

    def test_ranked_lists_exclude_train_items(self, monkeypatch):
        train, test = self.make_tables()
        seen = {}
        real_rank = metrics.rank_candidates

        def spy(users, scores, candidates, rows, items):
            for user, row in zip(users.tolist(), candidates):
                seen.setdefault(user, []).extend(np.flatnonzero(row).tolist())
            return real_rank(users, scores, candidates, rows, items)

        monkeypatch.setattr(metrics, "rank_candidates", spy)
        metrics.evaluate_ranking(score_rows(lambda u, i: float(i), 6), train, test,
                                 metrics.FullRanking(), [2])
        train_items = consumed(train)
        for u, items in seen.items():
            assert not (set(items) & train_items.get(u, set()))
            assert len(items) == len(set(items))


    def test_rank_and_reduce_read_one_pair_list(self, monkeypatch):
        train, test = self.make_tables()
        handed = {"rank": [], "reduce": []}
        real_rank, real_reduce = metrics.rank_candidates, metrics.ranking_metrics

        def rank_spy(users, scores, candidates, rows, items):
            handed["rank"].append(rows)
            return real_rank(users, scores, candidates, rows, items)

        def reduce_spy(users, rows, ranks, n_relevant, cutoffs):
            handed["reduce"].append(rows)
            return real_reduce(users, rows, ranks, n_relevant, cutoffs)

        monkeypatch.setattr(metrics, "rank_candidates", rank_spy)
        monkeypatch.setattr(metrics, "ranking_metrics", reduce_spy)
        metrics.evaluate_ranking(score_rows(lambda u, i: float(i), 6), train, test,
                                 metrics.SampledRanking(m=2, seed=3), [2])
        assert len(handed["rank"]) == len(handed["reduce"]) == 1
        assert handed["rank"][0] is handed["reduce"][0]


def dense_tables(n_users, n_items, train_pairs, test_pairs):
    """Train and test tables over one id space from (user, item) pairs; a
    test pair may repeat a train pair."""
    base = data.table_from_records([(f"u{u}", f"i{i}", 1.0, 0)
                                    for u in range(n_users) for i in range(n_items)])

    def with_pairs(pairs):
        users = np.array([u for u, _ in pairs], dtype=np.int64)
        items = np.array([i for _, i in pairs], dtype=np.int64)
        return dataclasses.replace(base, users=users, items=items, ratings=np.ones(users.size),
                                   timestamps=np.zeros(users.size, dtype=np.int64))

    return with_pairs(train_pairs), with_pairs(test_pairs)


@st.composite
def ranking_cases(draw):
    n_users = draw(st.integers(1, 6))
    n_items = draw(st.integers(2, 9))
    # small integers force exact ties
    scores = np.array(draw(st.lists(st.integers(-2, 2), min_size=n_users * n_items,
                                    max_size=n_users * n_items)),
                      dtype=np.float64).reshape(n_users, n_items)
    items = st.integers(0, n_items - 1)
    train_pairs, test_pairs = [], []
    for user in range(n_users):
        train_pairs += [(user, i) for i in sorted(draw(st.sets(items, max_size=n_items - 1)))]
        if draw(st.booleans()) or (user == n_users - 1 and not test_pairs):
            test_pairs += [(user, i) for i in sorted(draw(st.sets(items, min_size=1,
                                                                  max_size=4)))]
    cutoffs = sorted(draw(st.sets(st.integers(1, n_items + 3), min_size=1, max_size=3)))
    if draw(st.booleans()):
        protocol = metrics.FullRanking()
    else:
        protocol = metrics.SampledRanking(m=draw(st.integers(0, n_items + 2)),
                                          seed=draw(st.integers(0, 50)))
    return scores, dense_tables(n_users, n_items, train_pairs, test_pairs), protocol, cutoffs


class TestAgainstReference:
    @given(ranking_cases())
    @settings(max_examples=150, deadline=None)
    def test_report_equals_per_pair_sort_reference(self, case):
        scores, (train, test), protocol, cutoffs = case
        want = reference_evaluate_ranking(lambda u, i: scores[u, i], train, test, protocol,
                                          cutoffs)
        got = metrics.evaluate_ranking(lambda users: scores[users], train, test, protocol,
                                       cutoffs)
        assert got.to_text() == want.to_text()
        assert got.values == want.values  # bitwise

    @pytest.mark.parametrize("protocol", [metrics.FullRanking(),
                                          metrics.SampledRanking(m=9, seed=3)])
    def test_many_blocks_equal_reference(self, protocol, monkeypatch):
        # more users than one block and more relevant items than one compare
        rng = np.random.default_rng(41)
        n_users, n_items = 3 * metrics.BLOCK + 5, 23
        pairs = [(u, i) for u in range(n_users)
                 for i in rng.choice(n_items, size=8, replace=False).tolist()]
        train, test = dense_tables(n_users, n_items,
                                   [x for k, x in enumerate(pairs) if k % 8 < 5],
                                   [x for k, x in enumerate(pairs) if k % 8 >= 5])
        scores = rng.integers(0, 6, size=(n_users, n_items)).astype(np.float64)
        calls, reduced = [], []
        real_reduce = metrics.ranking_metrics

        def rows(users):
            calls.append(len(users))
            return scores[users]

        def reduce(users, *args):
            reduced.append(len(users))
            return real_reduce(users, *args)

        monkeypatch.setattr(metrics, "ranking_metrics", reduce)
        want = reference_evaluate_ranking(lambda u, i: scores[u, i], train, test, protocol,
                                          [1, 5, 30])
        got = metrics.evaluate_ranking(rows, train, test, protocol, [1, 5, 30])
        assert got.values == want.values
        assert calls == [metrics.BLOCK] * 3 + [5]
        assert reduced == [metrics.BLOCK] * 3 + [5]  # one reduction per block, not per user

    @pytest.mark.parametrize("protocol", [metrics.FullRanking(),
                                          metrics.SampledRanking(m=4, seed=8)])
    def test_cutoff_beyond_n_items_equals_reference(self, protocol):
        # the hit table is as wide as the item count, not the cutoff
        rng = np.random.default_rng(5)
        n_users, n_items = 9, 7
        pairs = [(u, i) for u in range(n_users)
                 for i in rng.choice(n_items, size=4, replace=False).tolist()]
        train, test = dense_tables(n_users, n_items, pairs[0::2], pairs[1::2])
        scores = rng.integers(0, 3, size=(n_users, n_items)).astype(np.float64)
        want = reference_evaluate_ranking(lambda u, i: scores[u, i], train, test, protocol,
                                          [1, 10**6])
        tracemalloc.start()
        try:
            got = metrics.evaluate_ranking(lambda users: scores[users], train, test, protocol,
                                           [1, 10**6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.to_text() == want.to_text()
        assert got.values == want.values
        assert peak < 2**20  # a (9, 10**6) bool table alone would take 9 MB


class TestNonFiniteScores:
    def tables(self):
        return TestEvaluateRanking().make_tables()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("protocol", [metrics.FullRanking(),
                                          metrics.SampledRanking(m=3, seed=1)])
    def test_candidate_score_raises_naming_user_and_item(self, bad, protocol):
        train, test = self.tables()
        scores = np.zeros((5, 6))
        scores[2, 5] = bad  # user 2's held-out item: a candidate under both protocols
        with pytest.raises(EvaluationError) as err:
            metrics.evaluate_ranking(lambda users: scores[users], train, test, protocol, [2])
        assert "user 2, item 5" in str(err.value)

    def test_consumed_item_score_is_ignored(self):
        train, test = self.tables()
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(5, 6))
        want = metrics.evaluate_ranking(lambda users: scores[users], train, test,
                                        metrics.FullRanking(), [1, 3])
        scores[0, 0] = float("nan")  # user 0 consumed item 0 in train
        scores[2, 4] = float("inf")  # ... and user 2 item 4
        got = metrics.evaluate_ranking(lambda users: scores[users], train, test,
                                       metrics.FullRanking(), [1, 3])
        assert got.values == want.values


class TestReportFormat:
    def test_text_block_layout(self):
        report = metrics.MetricReport(values={"precision@5": 0.25, "mrr": 1 / 3},
                                      protocol="full", seed=42, users=7,
                                      order=["precision@5", "mrr"])
        text = report.to_text()
        assert text.splitlines() == [
            "protocol\tfull", "seed\t42", "users\t7",
            "precision@5\t0.250000", "mrr\t0.333333",
        ]

    def test_rating_report(self):
        report = metrics.rating_report([3, 4], [3, 2], seed=1, users=2)
        assert report.order == ["rmse", "mae"]
        assert "rmse\t1.414214" in report.to_text()
