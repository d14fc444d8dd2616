import numpy as np
import pytest

from gradrec import data, engine as E, metrics, synthetic
from gradrec.errors import GradrecError
from gradrec.models import train
from gradrec.models.baselines import PopularityRanker
from gradrec.models.sequential import AttRec, Caser, Prme


def markov_split(window, horizon=1, **gen_kw):
    """(table, train table, test table, training bundle)."""
    table = synthetic.markov_chains(**gen_kw)
    train_table, test = data.split(table, data.LeaveOneOut())
    bundle = {"train": train_table,
              "sequences": data.build_sequences(train_table, window, horizon)}
    return table, train_table, test, bundle


def serve_window(model, user, window):
    """Serve ``window`` as the latest window of ``user``; users below it
    have none."""
    model.windows = np.full((user + 1, len(window)), model.padding_id)
    model.windows[user] = window


def prme_distance(model, user, prev_item, item):
    """The blended distance PRME ranks by, served from ``prev_item``."""
    serve_window(model, user, (prev_item,))
    return -model.score_matrix(np.array([user]))[0, item]


def window_scores(model, user, window):
    """The score_matrix row of ``user`` served from ``window``."""
    serve_window(model, user, window)
    return model.score_matrix(np.array([user]))[0]


def reference_caser_scores(model, user, window):
    """Caser's logits over the catalog for one window, in plain numpy:
    the reference the batched tape graph is checked against."""
    p = model.params
    ew = p["item_embed"][np.asarray(window)]
    pooled = []
    for h in range(1, model.window + 1):
        windows = np.lib.stride_tricks.sliding_window_view(ew, (h, ew.shape[1]))[:, 0]
        conv = np.einsum("thd,fhd->tf", windows, p[f"h_filters_{h}"]) + p[f"h_bias_{h}"]
        pooled.append(np.maximum(conv, 0.0).max(axis=0))
    vert = (p["v_filters"] @ ew).ravel()
    cat = np.concatenate(pooled + [vert])
    z = np.maximum(p["fc_w"] @ cat + p["fc_b"], 0.0)
    zu = np.concatenate([z, p["user_embed"][user]])
    return p["out_w"] @ zu + p["out_b"]


def reference_attrec_intent(model, window):
    """AttRec's short-term intent for one window, in plain numpy."""
    p = model.params
    ew = p["att_item"][np.asarray(window)]
    q = np.maximum(ew @ p["w_query"], 0.0)
    k = np.maximum(ew @ p["w_key"], 0.0)
    logits = (q @ k.T) / np.sqrt(model.d)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    return (attn @ ew).mean(axis=0)


def reference_attrec_distances(model, user, window):
    """AttRec's blended distances over the catalog for one window, in plain numpy."""
    p = model.params
    intent = reference_attrec_intent(model, window)
    d_lt = ((p["lt_user"][user] - p["lt_item"]) ** 2).sum(axis=1)
    d_st = ((intent - p["att_item"][:model.n_items]) ** 2).sum(axis=1)
    return model.omega * d_lt + (1.0 - model.omega) * d_st


class TestPrmeDistance:
    def test_pure_preference_distance(self):
        model = Prme(2, 3, k=2, alpha=1.0)
        model.params["user_embed"][0] = [0.0, 0.0]
        model.params["pref_item"][1] = [3.0, 4.0]
        assert prme_distance(model, 0, prev_item=2, item=1) == pytest.approx(25.0)

    def test_alpha_zero_ignores_user(self):
        model = Prme(2, 3, k=2, alpha=0.0, seed=1)
        before = prme_distance(model, 0, 1, 2)
        model.params["user_embed"][0] += 17.0
        assert prme_distance(model, 0, 1, 2) == pytest.approx(before)

    def test_convex_blend(self):
        model = Prme(1, 3, k=2, alpha=0.5)
        model.params["user_embed"][0] = [0.0, 0.0]
        model.params["pref_item"][2] = [3.0, 4.0]  # d^2 = 25
        model.params["seq_item"][1] = [0.0, 0.0]
        model.params["seq_item"][2] = [1.0, 0.0]  # d^2 = 1
        assert prme_distance(model, 0, prev_item=1, item=2) == pytest.approx(13.0)

    def test_scores_are_nonneg_distances(self):
        model = Prme(3, 4, k=3, alpha=0.3, seed=2)
        for prev in range(4):
            for item in range(4):
                assert prme_distance(model, 0, prev, item) >= 0.0


class TestPrmeFit:
    def test_gradient_check(self):
        model = Prme(3, 5, k=3, alpha=0.4, l2=0.02, seed=3)
        rng = np.random.default_rng(5)
        for name in model.params:
            model.params[name] = rng.normal(scale=0.5, size=model.params[name].shape)
        users = np.array([0, 1, 2])
        prevs = np.array([0, 1, 2])
        pos = np.array([1, 2, 3])
        neg = np.array([4, 0, 4])
        batch = (users, prevs[:, None], pos[:, None], neg[:, None])
        result = E.grad_check(lambda lv: model.build_loss(lv, batch),
                              model.params)
        assert result.max_rel_err < 1e-4

    def test_learns_planted_transitions(self):
        table, train_table, test, bundle = markov_split(window=1, n_users=60, n_items=15,
                                                        history=8, seed=2)
        model = Prme(table.n_users, table.n_items, k=8, alpha=0.2, l2=0.0, seed=1)
        train(model, bundle, E.Adam(lr=0.05), epochs=30, batch_size=64, seed=2)
        report = metrics.evaluate_ranking(model.score_matrix, train_table, test,
                                          metrics.FullRanking(), [1])
        assert report.values["recall@1"] >= 0.9  # HR@1 on single held-out items

    def test_alpha_boundaries_freeze_unused_tables(self):
        _, _, _, bundle = markov_split(window=1, n_users=10, n_items=6, history=8, seed=4)
        for alpha, frozen in ((0.0, ("user_embed", "pref_item")), (1.0, ("seq_item",))):
            model = Prme(10, 6, k=4, alpha=alpha, l2=0.01, seed=5)
            before = {n: model.params[n].copy() for n in frozen}
            train(model, bundle, E.Adam(lr=0.05), epochs=2, batch_size=16, seed=6)
            for name in frozen:
                assert np.array_equal(model.params[name], before[name]), (alpha, name)

    def test_requires_first_order_sequences(self):
        table = synthetic.markov_chains(n_users=5, n_items=5, history=6, seed=1)
        sequences = data.build_sequences(table, window=2, horizon=1)
        model = Prme(table.n_users, table.n_items, k=2)
        with pytest.raises(GradrecError):
            train(model, {"train": table, "sequences": sequences}, E.Sgd(lr=0.1), epochs=1,
              batch_size=8, seed=0)

    def test_bitwise_reproducible(self):
        _, _, _, bundle = markov_split(window=1, n_users=12, n_items=6, history=10, seed=7)

        def run():
            model = Prme(12, 6, k=4, alpha=0.5, seed=8)
            return train(model, bundle, E.Adam(lr=0.02), epochs=4, batch_size=32, seed=9)

        assert run() == run()


class TestCaserForward:
    def test_conv_signal_length(self):
        model = Caser(2, 6, d=3, window=5, n_h=2, n_v=1, seed=0)
        leaves = {n: E.const(v) for n, v in model.params.items()}
        ew = E.embedding_lookup(leaves["item_embed"], np.array([0, 1, 2, 3, 4]))
        conv = E.conv_h(ew, leaves["h_filters_2"]) + leaves["h_bias_2"]
        assert conv.value.shape == (4, 2)  # L - h + 1 = 4 positions

    def test_vertical_branch_width(self):
        d, n_v = 8, 3
        model = Caser(2, 6, d=d, window=4, n_h=1, n_v=n_v, seed=1)
        assert model.params["fc_w"].shape[1] == 1 * 4 + n_v * d

    def test_all_padding_window_scores_equal(self):
        model = Caser(2, 5, d=4, window=3, n_h=2, n_v=1, seed=2)
        model.params["user_embed"][:] = 0.0
        model.params["fc_b"][:] = 0.0
        model.params["out_b"][:] = 0.0
        for h in range(1, 4):
            model.params[f"h_bias_{h}"][:] = 0.0
        # serving refuses such a window as no history, so score it through
        # the forward pieces that score_matrix uses
        leaves = model.const_leaves()
        zu = model.user_vectors(leaves, np.array([0]), np.full((1, 3), model.padding_id))
        scores = model.pair_logits(leaves, zu, np.zeros(5, dtype=np.int64), np.arange(5)).value
        assert np.allclose(scores, scores[0])

    def test_wrong_window_length_rejected(self):
        model = Caser(2, 5, d=4, window=3, seed=3)
        _, _, _, bundle = markov_split(window=2, n_users=2, n_items=5, history=6, seed=3)
        with pytest.raises(GradrecError):
            train(model, bundle, E.Sgd(lr=0.1), epochs=1, batch_size=8, seed=0)


class TestCaserFit:
    def test_gradient_check(self):
        model = Caser(3, 6, d=4, window=3, n_h=1, n_v=1, seed=4)
        rng = np.random.default_rng(6)
        for name in model.params:
            model.params[name] = rng.normal(scale=0.4, size=model.params[name].shape)
        model.params["item_embed"][model.padding_id] = 0.0
        ds = data.build_sequences(
            synthetic.markov_chains(n_users=2, n_items=6, history=5, seed=3), 3, 1)
        rows = np.array([0, 3])
        batch = (ds.users[rows], ds.windows[rows], ds.targets[rows], np.array([[4, 5], [0, 2]]))
        result = E.grad_check(lambda lv: model.build_loss(lv, batch),
                              model.params)
        assert result.max_rel_err < 1e-4

    def test_learns_planted_transitions(self):
        table, train_table, test, bundle = markov_split(window=5, n_users=60, n_items=15,
                                                        history=8, seed=6)
        model = Caser(table.n_users, table.n_items, d=8, window=5, n_h=2, n_v=1, seed=7)
        train(model, bundle, E.Adam(lr=0.05), epochs=12, batch_size=16, seed=8, neg_samples=3)
        report = metrics.evaluate_ranking(model.score_matrix, train_table, test,
                                          metrics.FullRanking(), [1])
        assert report.values["recall@1"] >= 0.9

    def test_padding_row_stays_zero(self):
        _, _, _, bundle = markov_split(window=3, n_users=15, n_items=6, history=10, seed=9)
        model = Caser(15, 6, d=4, window=3, n_h=1, n_v=1, seed=10)
        steps = 0

        def watch(params):
            nonlocal steps
            steps += 1
            assert np.array_equal(params["item_embed"][model.padding_id], np.zeros(4))

        train(model, bundle, E.Adam(lr=0.05), epochs=15, batch_size=8, seed=11, on_step=watch)
        assert steps >= 100


class TestAttRecScore:
    def test_attention_rows_sum_to_one(self):
        model = AttRec(2, 6, d=4, window=3, seed=0)
        rng = np.random.default_rng(1)
        model.params["att_item"] = rng.normal(size=model.params["att_item"].shape)
        leaves = {n: E.const(v) for n, v in model.params.items()}
        ew = E.embedding_lookup(leaves["att_item"], np.array([0, 1, 2]))
        q = E.matmul(ew, leaves["w_query"]).relu()
        k = E.matmul(ew, leaves["w_key"]).relu()
        attn = E.softmax_rows(E.matmul(q, k.T) * (1.0 / 2.0))
        np.testing.assert_allclose(attn.value.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(attn.value >= 0.0)

    def test_omega_one_ignores_window(self):
        model = AttRec(2, 6, d=4, window=3, omega=1.0, seed=2)
        base = window_scores(model, 0, (0, 1, 2))[3]
        assert window_scores(model, 0, (4, 5, 0))[3] == pytest.approx(base)

    def test_single_token_window_intent_is_embedding(self):
        model = AttRec(2, 6, d=4, window=1, seed=3)
        rng = np.random.default_rng(4)
        model.params["att_item"] = rng.normal(size=model.params["att_item"].shape)
        leaves = {n: E.const(v) for n, v in model.params.items()}
        intent = model.intents(leaves, np.array([[2]])).value[0]
        np.testing.assert_allclose(intent, model.params["att_item"][2], atol=1e-12)

    def test_scores_are_negated_distances(self):
        model = AttRec(2, 6, d=4, window=2, seed=5)
        serve_window(model, 0, (1, 2))
        leaves = {n: E.const(v) for n, v in model.params.items()}
        intents = model.intents(leaves, np.array([(1, 2)] * 6))
        dists = model.distances(leaves, np.zeros(6, dtype=np.int64), intents, np.arange(6)).value
        assert np.all(dists >= 0.0)
        assert model.score(0, 3) == pytest.approx(-dists[3])


class TestAttRecFit:
    def test_hinge_example(self):
        # gamma=0.5, s_pos=0.2, s_neg=1.0 -> max(0, 0.5 + 0.2 - 1.0) = 0
        assert max(0.0, 0.5 + 0.2 - 1.0) == 0.0
        node = (0.5 + E.const(0.2) - E.const(1.0)).relu()
        assert float(node.value) == 0.0

    def test_gradient_check_away_from_kinks(self):
        model = AttRec(3, 6, d=4, window=2, omega=0.4, margin=2.0, seed=6)
        rng = np.random.default_rng(7)
        for name in model.params:
            model.params[name] = rng.normal(scale=0.6, size=model.params[name].shape)
        model.params["att_item"][model.padding_id] = 0.0
        ds = data.build_sequences(
            synthetic.markov_chains(n_users=3, n_items=6, history=5, seed=5), 2, 1)
        # windows without the padding id: its all-zero row would pin the
        # relu projections exactly onto their kink
        clean = np.flatnonzero((ds.windows != model.padding_id).all(axis=1))[[0, 3]]
        batch = (ds.users[clean], ds.windows[clean], ds.targets[clean], np.array([[4], [5]]))
        # confirm hinges and relu pre-activations sit away from the kinks
        leaves = {n: E.const(v) for n, v in model.params.items()}
        for user, window, target, neg in zip(*batch):
            ew = model.params["att_item"][window]
            pre = np.concatenate([(ew @ model.params["w_query"]).ravel(),
                                  (ew @ model.params["w_key"]).ravel()])
            assert np.abs(pre).min() > 1e-3
            users, windows = np.array([user]), np.array([window])
            intents = model.intents(leaves, windows)
            arg = (model.margin
                   + model.distances(leaves, users, intents, target[:1]).value
                   - model.distances(leaves, users, intents, neg).value)
            assert abs(float(arg[0])) > 1e-3
        result = E.grad_check(lambda lv: model.build_loss(lv, batch),
                              model.params)
        assert result.max_rel_err < 1e-4

    def test_beats_popularity_by_half_again(self):
        table, train_table, test, bundle = markov_split(window=3, n_users=60, n_items=20,
                                                        history=8, seed=8)
        model = AttRec(table.n_users, table.n_items, d=8, window=3, omega=0.3,
                       margin=0.5, clip_rho=1.5, seed=9)
        train(model, bundle, E.Adam(lr=0.05), epochs=15, batch_size=16, seed=10)
        got = metrics.evaluate_ranking(model.score_matrix, train_table, test,
                                       metrics.FullRanking(), [5])
        pop = PopularityRanker(train_table)
        base = metrics.evaluate_ranking(pop.score_matrix, train_table, test,
                                        metrics.FullRanking(), [5])
        assert got.values["recall@5"] >= 1.5 * base.values["recall@5"]

    def test_norms_clipped_and_padding_zero_every_step(self):
        _, _, _, bundle = markov_split(window=2, n_users=12, n_items=6, history=8, seed=11)
        rho = 0.8
        model = AttRec(12, 6, d=4, window=2, clip_rho=rho, seed=12)
        checks = 0

        def watch(params):
            nonlocal checks
            checks += 1
            for name in ("att_item", "lt_user", "lt_item"):
                assert np.linalg.norm(params[name], axis=1).max() <= rho + 1e-12
            assert np.array_equal(params["att_item"][model.padding_id], np.zeros(4))

        train(model, bundle, E.Adam(lr=0.1), epochs=3, batch_size=8, seed=13, on_step=watch)
        assert checks > 0

    def test_bitwise_reproducible(self):
        _, _, _, bundle = markov_split(window=2, n_users=10, n_items=6, history=8, seed=14)

        def run():
            model = AttRec(10, 6, d=4, window=2, seed=15)
            return train(model, bundle, E.Adam(lr=0.03), epochs=3, batch_size=8, seed=16)

        assert run() == run()


def softplus(x):
    return np.logaddexp(0.0, x)


def randomized(model, pad_table, seed, scale):
    rng = np.random.default_rng(seed)
    for name in model.params:
        model.params[name] = rng.normal(scale=scale, size=model.params[name].shape)
    model.params[pad_table][model.padding_id] = 0.0
    return model


class TestBatchedParity:
    """The batched tape graph of a minibatch and the served ``score_matrix``
    rows compute what the plain-numpy per-window references do."""

    TABLE = dict(n_users=6, n_items=9, history=5, seed=21)

    def instances(self, window, horizon):
        """(users, windows, targets) of the first 12 instances."""
        ds = data.build_sequences(synthetic.markov_chains(**self.TABLE), window, horizon)
        # every user's first instances are left-padded
        assert (ds.windows[:12] == ds.padding_id).any()
        return ds.users[:12], ds.windows[:12], ds.targets[:12]

    def test_caser_loss_and_logits_match_per_instance(self):
        model = randomized(Caser(6, 9, d=4, window=3, n_h=2, n_v=2, seed=22),
                           "item_embed", seed=23, scale=0.5)
        table = synthetic.markov_chains(**self.TABLE)
        sequences = data.build_sequences(table, 3, 2)
        model.bind({"train": table, "sequences": sequences}, batch_size=64, neg_samples=3)
        _, batch = next(model.batches(np.random.default_rng(24)))
        users, windows, targets, negatives = batch
        pad = model.padding_id
        # the whole epoch in one batch: left-padded windows, and the last
        # instance of each user has a shortened tail target
        assert (windows == pad).any()
        assert set(np.count_nonzero(targets != pad, axis=1).tolist()) == {1, 2}
        leaves = {n: E.const(v) for n, v in model.params.items()}

        total, count = 0.0, 0
        for user, window, target, neg in zip(*batch):
            target, neg = target[target != pad], neg[neg != pad]
            assert neg.size == 3 * target.size
            items = np.concatenate([target, neg])
            labels = np.concatenate([np.ones(target.size), np.zeros(neg.size)])
            logits = reference_caser_scores(model, user, window)[items]
            total += float((softplus(logits) - labels * logits).sum())
            count += items.size
        loss = model.build_loss(leaves, batch)
        assert abs(float(loss.value) - total / count) < 1e-12

        rows = np.repeat(np.arange(users.size), 9)
        items = np.tile(np.arange(9), users.size)
        zu = model.user_vectors(leaves, users, windows)
        got = model.pair_logits(leaves, zu, rows, items).value.reshape(users.size, 9)
        want = np.stack([reference_caser_scores(model, u, w) for u, w in zip(users, windows)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_attrec_loss_and_distances_match_per_instance(self):
        model = randomized(AttRec(6, 9, d=4, window=3, omega=0.4, margin=1.0, seed=25),
                           "att_item", seed=26, scale=0.6)
        users, windows, targets = self.instances(window=3, horizon=1)
        negatives = np.random.default_rng(27).integers(0, 9, size=(users.size, 1))
        leaves = {n: E.const(v) for n, v in model.params.items()}

        total = 0.0
        for user, window, target, neg in zip(users, windows, targets, negatives):
            dists = reference_attrec_distances(model, user, window)
            total += max(0.0, model.margin + dists[target[0]] - dists[neg[0]])
        loss = model.build_loss(leaves, (users, windows, targets, negatives))
        assert abs(float(loss.value) - total / users.size) < 1e-12

        intents = model.intents(leaves, windows)
        for item in range(9):
            got = model.distances(leaves, users, intents, np.full(users.size, item)).value
            want = [reference_attrec_distances(model, u, w)[item] for u, w in zip(users, windows)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_served_rows_match_reference(self):
        insts_users, insts_windows, _ = self.instances(window=3, horizon=1)
        latest = dict(zip(insts_users.tolist(), insts_windows))  # one window per user
        users = np.array(sorted(latest))
        caser = randomized(Caser(6, 9, d=4, window=3, n_h=2, n_v=2, seed=29),
                           "item_embed", seed=30, scale=0.5)
        attrec = randomized(AttRec(6, 9, d=4, window=3, omega=0.4, seed=31),
                            "att_item", seed=32, scale=0.6)
        for model, reference, sign in ((caser, reference_caser_scores, 1.0),
                                       (attrec, reference_attrec_distances, -1.0)):
            model.windows = np.full((6, 3), model.padding_id)
            model.windows[users] = [latest[u] for u in users.tolist()]
            want = np.stack([sign * reference(model, u, latest[u]) for u in users.tolist()])
            np.testing.assert_allclose(model.score_matrix(users), want, rtol=0, atol=1e-12)

    def test_attrec_wrong_window_length_rejected(self):
        model = AttRec(2, 5, d=4, window=3, seed=28)
        _, _, _, bundle = markov_split(window=4, n_users=2, n_items=5, history=6, seed=28)
        with pytest.raises(GradrecError):
            train(model, bundle, E.Sgd(lr=0.1), epochs=1, batch_size=8, seed=0)
