import math

import numpy as np
import pytest

from gradrec import config as cfgmod
from gradrec import data, engine as E, metrics, synthetic
from gradrec.errors import GradrecError
from gradrec.models import train
from gradrec.models.baselines import PopularityRanker
from gradrec.models.ranking import BprMf, Cdae, Cml, NeuMf

from conftest import consumed, score_rows
from test_acceptance import model_config_text


def loss_value(model, batch):
    leaves = {n: E.param(model.params[n], n) for n in model.params}
    return float(model.build_loss(leaves, batch).value)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestBprLoss:
    def test_zero_logit_gives_ln2(self):
        model = BprMf(2, 3, k=2, l2=0.0, seed=0)
        model.params["user_factors"][:] = 0.0
        model.params["item_factors"][:] = 0.0
        batch = (np.array([0]), np.array([1]), np.array([2]))
        assert loss_value(model, batch) == pytest.approx(math.log(2), abs=1e-12)

    def test_logit_gradient_at_zero(self):
        # d(-ln sigma(x))/dx = sigma(x) - 1 = -0.5 at x = 0
        x = E.param(0.0)
        loss = (-1.0 * x).softplus()
        grads = E.backward(loss)
        assert grads[x] == pytest.approx(-0.5)

    def test_gradient_check(self):
        model = BprMf(4, 6, k=3, l2=0.05, seed=3)
        users = np.array([0, 1, 2, 3, 0])
        pos = np.array([0, 1, 2, 3, 4])
        neg = np.array([5, 4, 0, 1, 2])
        result = E.grad_check(lambda lv: model.build_loss(lv, (users, pos, neg)),
                              model.params)
        assert result.max_rel_err < 1e-4

    def test_score_shift_of_both_items_cancels_in_logit(self):
        model = BprMf(2, 3, k=2, seed=1)
        p = model.params
        x = p["user_factors"][0] @ (p["item_factors"][1] - p["item_factors"][2])
        shifted = ((p["user_factors"][0] @ p["item_factors"][1] + 7.5)
                   - (p["user_factors"][0] @ p["item_factors"][2] + 7.5))
        assert shifted == pytest.approx(x)


def auc_on_holdout(model, train, held):
    """Probability that a held-out positive outscores a random unseen negative."""
    rng = np.random.default_rng(0)
    train_items = consumed(train)
    held_by_user = consumed(held)
    wins, total = 0, 0
    for user, positives in sorted(held_by_user.items()):
        blocked = train_items.get(user, set()) | positives
        negatives = [i for i in range(train.n_items) if i not in blocked]
        for pos in sorted(positives):
            s_pos = model.score(user, pos)
            for neg in rng.choice(negatives, size=min(20, len(negatives)), replace=False):
                s_neg = model.score(user, int(neg))
                wins += 1.0 if s_pos > s_neg else (0.5 if s_pos == s_neg else 0.0)
                total += 1
    return wins / total


class TestBprFit:
    def test_block_preference_auc(self):
        train_table, held = synthetic.block_preferences(seed=5)
        # k=2 matches the planted rank so the block structure is recovered
        # instead of memorized
        model = BprMf(train_table.n_users, train_table.n_items, k=2, l2=0.001, seed=1)
        train(model, {"train": train_table}, E.Adam(lr=0.05), epochs=30, batch_size=64, seed=2)
        assert auc_on_holdout(model, train_table, held) >= 0.95

    def test_ndcg_invariant_under_user_constant_shift(self):
        train_table, held = synthetic.block_preferences(seed=3)
        model = BprMf(train_table.n_users, train_table.n_items, k=4, l2=0.0, seed=4)
        train(model, {"train": train_table}, E.Adam(lr=0.05), epochs=5, batch_size=64, seed=5)
        base = metrics.evaluate_ranking(model.score_matrix, train_table, held,
                                        metrics.FullRanking(), [10])
        shifted = metrics.evaluate_ranking(lambda users: model.score_matrix(users) + 42.0,
                                           train_table, held, metrics.FullRanking(), [10])
        assert base.values == shifted.values

    def test_fixed_seed_reproduces_metrics(self):
        train_table, held = synthetic.block_preferences(seed=7)

        def run():
            model = BprMf(train_table.n_users, train_table.n_items, k=4, l2=0.0, seed=9)
            train(model, {"train": train_table}, E.Adam(lr=0.05), epochs=5, batch_size=32,
                  seed=11)
            report = metrics.evaluate_ranking(model.score_matrix, train_table, held,
                                              metrics.FullRanking(), [10])
            return report.values

        assert run() == run()

    def test_positives_of_saturated_users_are_skipped(self, caplog):
        # "full" has consumed every item, so none of its rows has a negative
        records = [("full", f"i{i}", 1.0, i) for i in range(3)]
        records += [("u0", "i0", 1.0, 0), ("u1", "i2", 1.0, 0), ("u1", "i1", 1.0, 1)]
        table = data.table_from_records(records)
        model = BprMf(table.n_users, table.n_items, k=2, seed=0)
        with caplog.at_level("INFO", logger="gradrec.models.ranking"):
            train(model, {"train": table}, E.Sgd(lr=0.1), epochs=2, batch_size=2, seed=1)
        assert "skipping 3 positives of fully-saturated users" in caplog.text
        users, items = model._examples
        assert list(zip(users.tolist(), items.tolist())) == [(1, 0), (2, 2), (2, 1)]

    def test_scores_stay_finite_every_epoch(self):
        train_table, _ = synthetic.block_preferences(seed=1)
        model = BprMf(train_table.n_users, train_table.n_items, k=4, l2=0.0, seed=2)
        for _ in range(5):
            train(model, {"train": train_table}, E.Adam(lr=0.1), epochs=1, batch_size=32, seed=3)
            scores = model.params["user_factors"] @ model.params["item_factors"].T
            assert np.all(np.isfinite(scores))


class TestCmlLoss:
    def test_satisfied_margin_is_zero(self):
        model = Cml(1, 2, k=2, margin=0.5)
        model.params["user_points"][0] = [0.0, 0.0]
        model.params["item_points"][0] = [np.sqrt(0.2), 0.0]  # d^2 = 0.2
        model.params["item_points"][1] = [1.0, 0.0]  # d^2 = 1.0
        assert loss_value(model, (np.array([0]), np.array([0]), np.array([[1]]))) == \
            pytest.approx(0.0)

    def test_hinge_arithmetic(self):
        model = Cml(1, 2, k=2, margin=0.5)
        model.params["user_points"][0] = [0.0, 0.0]
        model.params["item_points"][0] = [np.sqrt(0.2), 0.0]
        model.params["item_points"][1] = [np.sqrt(0.4), 0.0]
        assert loss_value(model, (np.array([0]), np.array([0]), np.array([[1]]))) == \
            pytest.approx(0.3)

    def test_gradient_check_away_from_kinks(self):
        model = Cml(3, 5, k=2, margin=0.5, seed=2)
        # spread the points so no hinge sits near zero
        rng = np.random.default_rng(4)
        model.params["user_points"] = rng.normal(scale=0.4, size=(3, 2))
        model.params["item_points"] = rng.normal(scale=0.4, size=(5, 2))
        users = np.array([0, 1, 2])
        pos = np.array([0, 1, 2])
        neg = np.array([3, 4, 3])
        leaves = {n: E.param(model.params[n], n) for n in model.params}
        hinge_args = (model.margin
                      + E.sq_l2_dist(E.embedding_lookup(leaves["user_points"], users),
                                     E.embedding_lookup(leaves["item_points"], pos))
                      - E.sq_l2_dist(E.embedding_lookup(leaves["user_points"], users),
                                     E.embedding_lookup(leaves["item_points"], neg))).value
        assert np.all(np.abs(hinge_args) > 1e-3)  # away from the kink
        result = E.grad_check(lambda lv: model.build_loss(lv, (users, pos, neg)),
                              model.params)
        assert result.max_rel_err < 1e-4

    def test_margin_must_be_positive(self):
        with pytest.raises(GradrecError):
            Cml(2, 2, k=2, margin=0.0)


class TestCmlFit:
    def test_projection_invariant(self):
        table = synthetic.clustered_implicit(seed=3)
        model = Cml(table.n_users, table.n_items, k=4, margin=0.5, seed=1)
        norms = []

        def watch(params):
            norms.append(max(np.linalg.norm(params["user_points"], axis=1).max(),
                             np.linalg.norm(params["item_points"], axis=1).max()))

        train(model, {"train": table}, E.Adam(lr=0.05), epochs=3, batch_size=16, seed=2,
              neg_samples=2, on_step=watch)
        assert norms and max(norms) <= 1.0 + 1e-12

    def test_recovers_clusters(self):
        table = synthetic.clustered_implicit(users_per_cluster=14, likes_per_user=6, seed=8)
        train_table, test = data.split(table, data.LeaveOneOut())
        model = Cml(table.n_users, table.n_items, k=8, margin=0.8, seed=3)
        train(model, {"train": train_table}, E.Adam(lr=0.05), epochs=40, batch_size=32, seed=4,
              neg_samples=4)
        got = metrics.evaluate_ranking(model.score_matrix, train_table, test,
                                       metrics.FullRanking(), [5])
        relevant = {x.user: x.item for x in test.interactions}
        oracle = metrics.evaluate_ranking(
            score_rows(lambda u, i: 1.0 if relevant.get(u) == i else 0.0, table.n_items),
            train_table, test, metrics.FullRanking(), [5])
        assert got.values["recall@5"] >= 0.8 * oracle.values["recall@5"]

    def test_zero_loss_reachable_on_separable_toy(self):
        # one user, one liked item, margin small: hinge can close completely
        table = data.table_from_records([("u0", "i0", 1.0, 0), ("u0", "i1", 1.0, 1),
                                         ("u1", "i2", 1.0, 0)])
        model = Cml(table.n_users, table.n_items, k=2, margin=0.05, seed=5)
        trace = train(model, {"train": table}, E.Adam(lr=0.05), epochs=60, batch_size=4,
                      seed=6, neg_samples=1)
        assert trace[-1] == pytest.approx(0.0, abs=1e-9)


class TestNeuMfScores:
    def test_odd_k_builds_the_tower_the_config_path_builds(self, implicit_file):
        cfg = cfgmod.parse_config(model_config_text("mlp", implicit_file).replace("k = 8",
                                                                                 "k = 5"))
        table = synthetic.clustered_implicit(seed=3)
        direct = NeuMf(table.n_users, table.n_items, k=5, variant="mlp", seed=cfg.train.seed)
        configured = NeuMf.create(cfg, {"train": table})
        assert direct.layers == configured.layers == [5, 2]
        assert [v.shape for v in direct.params.values()] == \
            [v.shape for v in configured.params.values()]

    def test_gmf_with_unit_output_is_sigmoid_mf(self):
        model = NeuMf(3, 4, k=4, variant="gmf", seed=1)
        model.params["gmf_out"][:] = 1.0
        p = model.params
        want = sigmoid(float(p["gmf_user"][1] @ p["gmf_item"][2]))
        assert model.score(1, 2) == pytest.approx(want, abs=1e-12)

    def test_all_zero_parameters_score_half(self):
        for variant in NeuMf.VARIANTS:
            model = NeuMf(2, 2, k=4, variant=variant, seed=0)
            for name in model.params:
                model.params[name] = np.zeros_like(model.params[name])
            assert model.score(0, 1) == pytest.approx(0.5)

    def test_neumf_equals_hand_composed_fusion(self):
        model = NeuMf(2, 2, k=4, variant="neumf", seed=7)
        p = model.params
        u, i = 1, 0
        gmf_vec = p["gmf_user"][u] * p["gmf_item"][i]
        x = np.concatenate([p["mlp_user"][u], p["mlp_item"][i]])
        for n in (1, 2):
            x = np.maximum(x @ p[f"mlp_w{n}"] + p[f"mlp_b{n}"], 0.0)
        fused = np.concatenate([gmf_vec, x])
        want = sigmoid(float(fused @ p["fusion_w"] + p["fusion_b"]))
        assert model.score(u, i) == pytest.approx(want, abs=1e-12)


class TestNeuMfFit:
    def tiny_table(self):
        return synthetic.clustered_implicit(n_clusters=2, users_per_cluster=3,
                                            items_per_cluster=4, likes_per_user=2, seed=2)

    @pytest.mark.parametrize("variant", NeuMf.VARIANTS)
    def test_gradient_check(self, variant):
        model = NeuMf(3, 5, k=4, variant=variant, seed=4)
        # rescale parameters so relu pre-activations sit far from the kink
        # relative to the finite-difference step
        rng = np.random.default_rng(12)
        for name in model.params:
            model.params[name] = rng.normal(scale=0.5, size=model.params[name].shape)
        users = np.array([0, 1, 2, 0])
        items = np.array([1, 2, 3, 4])
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        result = E.grad_check(lambda lv: model.build_loss(lv, (users, items, labels)),
                              model.params)
        assert result.max_rel_err < 1e-4, variant

    def test_overfits_tiny_interactions(self):
        table = self.tiny_table()
        model = NeuMf(table.n_users, table.n_items, k=8, variant="neumf", seed=5)
        trace = train(model, {"train": table}, E.Adam(lr=0.05), epochs=300, batch_size=64,
                      seed=6, neg_samples=2)
        assert trace[-1] < 0.05 * trace[0]

    def test_gmf_variant_leaves_mlp_untouched(self):
        table = self.tiny_table()
        model = NeuMf(table.n_users, table.n_items, k=4, variant="gmf", seed=7)
        before = {n: model.params[n].copy() for n in model.params if n.startswith("mlp")}
        train(model, {"train": table}, E.Adam(lr=0.05), epochs=3, batch_size=32, seed=8)
        for name, value in before.items():
            assert np.array_equal(model.params[name], value), name

    def test_gmf_variant_matches_standalone_gmf_path(self):
        table = self.tiny_table()
        model = NeuMf(table.n_users, table.n_items, k=4, variant="gmf", seed=9)
        train(model, {"train": table}, E.Adam(lr=0.05), epochs=4, batch_size=32, seed=10)
        p = model.params
        for u in range(table.n_users):
            for i in range(table.n_items):
                direct = sigmoid(float((p["gmf_user"][u] * p["gmf_item"][i]) @ p["gmf_out"]))
                assert model.score(u, i) == pytest.approx(direct, abs=1e-15)


class TestCdae:
    def test_zero_parameters_give_half_scores(self):
        model = Cdae(2, 5, hidden=3, corruption=0.0, seed=0)
        for name in model.params:
            model.params[name] = np.zeros_like(model.params[name])
        scores = model.score_matrix(np.array([0]))[0]  # no train items: a zero input
        np.testing.assert_allclose(scores, 0.5)

    def test_zero_corruption_keeps_input(self):
        table = synthetic.clustered_implicit(n_clusters=1, users_per_cluster=2,
                                             items_per_cluster=6, likes_per_user=3, seed=1)
        model = Cdae(table.n_users, table.n_items, hidden=4, corruption=0.0, seed=2)
        train(model, {"train": table}, E.Sgd(lr=0.0), epochs=1, seed=3)
        train_items = consumed(table)
        for user, vec in enumerate(model._inputs):
            np.testing.assert_array_equal(np.flatnonzero(vec),
                                          np.array(sorted(train_items.get(user, ()))))

    def test_corruption_bounds_validated(self):
        with pytest.raises(GradrecError):
            Cdae(2, 2, hidden=2, corruption=1.0)

    def test_wrong_length_preference_rejected(self):
        model = Cdae(2, 4, hidden=2)
        three_items = data.table_from_records([("u0", "i0", 1.0, 0), ("u1", "i2", 1.0, 0),
                                               ("u1", "i1", 1.0, 1)])
        with pytest.raises(GradrecError):
            model.serve({"train": three_items})

    def test_gradient_check(self):
        model = Cdae(3, 6, hidden=3, corruption=0.0, seed=4)
        corrupted = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        targets = np.array([0, 2, 3, 5])
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        result = E.grad_check(
            lambda lv: model.build_loss(lv, (1, corrupted, targets, labels)),
            model.params)
        assert result.max_rel_err < 1e-4

    def test_beats_popularity_on_clusters(self):
        table = synthetic.clustered_implicit(n_clusters=3, users_per_cluster=12,
                                             items_per_cluster=8, likes_per_user=5, seed=9)
        train_table, test = data.split(table, data.LeaveOneOut())
        model = Cdae(table.n_users, table.n_items, hidden=12, corruption=0.2, seed=5)
        train(model, {"train": train_table}, E.Adam(lr=0.05), epochs=40, seed=6, neg_samples=4)
        got = metrics.evaluate_ranking(model.score_matrix, train_table, test,
                                       metrics.FullRanking(), [10])
        pop = PopularityRanker(train_table)
        base = metrics.evaluate_ranking(pop.score_matrix, train_table, test,
                                        metrics.FullRanking(), [10])
        assert got.values["ndcg@10"] >= 1.2 * base.values["ndcg@10"]

    def test_single_user_overfit_ranks_own_items_on_top(self):
        records = [("u0", f"i{k}", 1.0, k) for k in (0, 3, 5, 7)]
        records += [("u0", f"i{k}", 0.0, 10 + k) for k in (1, 2, 4, 6, 8, 9)]
        table = data.table_from_records([r for r in records if r[2] == 1.0])
        # pad the id space with the unconsumed items
        full = data.table_from_records(records)
        model = Cdae(full.n_users, full.n_items, hidden=6, corruption=0.0, seed=7)
        consumed_table = full.take(np.flatnonzero(full.ratings == 1.0))
        train(model, {"train": consumed_table}, E.Adam(lr=0.1), epochs=150, seed=8,
              neg_samples=2)
        own = sorted(consumed(consumed_table)[0])
        scores = model.score_matrix(np.array([0]))[0]
        top = np.argsort(-scores)[:len(own)]
        assert set(top.tolist()) == set(own)
        del table

    def test_fixed_seed_bitwise_trace(self):
        table = synthetic.clustered_implicit(seed=4)

        def run():
            model = Cdae(table.n_users, table.n_items, hidden=5, corruption=0.3, seed=1)
            return train(model, {"train": table}, E.Adam(lr=0.02), epochs=4, seed=2, neg_samples=2)

        assert run() == run()
