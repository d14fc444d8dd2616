import numpy as np
import pytest

from gradrec import data, engine as E, synthetic
from gradrec.errors import GradrecError, TrainingDivergedError
from gradrec.models import train
from gradrec.models.rating import BiasedSvd, FactorizationMachine, ItemAutoRec


def fm_bruteforce(w0, w, v, x):
    """O(n^2) pairwise FM evaluation straight from the definition."""
    acc = w0 + float(np.dot(w, x))
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            acc += float(np.dot(v[i], v[j])) * x[i] * x[j]
    return acc


def raw_biasedsvd(model, user, item):
    """mu + b_u + b_i + p_u . q_i, unclipped."""
    p = model.params
    return float(p["global_mean"] + p["user_bias"][user] + p["item_bias"][item]
                 + p["user_factors"][user] @ p["item_factors"][item])


class TestBiasedSvdScore:
    def make(self, **kw):
        return BiasedSvd(n_users=3, n_items=3, k=2, rating_range=(1, 5), **kw)

    def test_sum_by_definition(self):
        model = self.make(global_mean=3.0)
        model.params["user_bias"][0] = 0.5
        model.params["item_bias"][1] = -0.2
        model.params["user_factors"][0] = [0.1, 0.0]
        model.params["item_factors"][1] = [1.0, 0.0]
        assert model.predict(0, 1) == pytest.approx(3.4)

    def test_zero_factors_predict_mean(self):
        model = self.make(global_mean=3.7)
        model.params["user_factors"][:] = 0.0
        model.params["item_factors"][:] = 0.0
        for u in range(3):
            for i in range(3):
                assert model.predict(u, i) == pytest.approx(3.7)

    def test_clipping(self):
        model = self.make(global_mean=3.0)
        model.params["user_bias"][0] = 2.0
        model.params["item_bias"][0] = 0.7
        assert raw_biasedsvd(model, 0, 0) == pytest.approx(5.7)
        assert model.predict(0, 0) == 5.0

    def test_out_of_range_ids(self):
        model = self.make()
        for user, item in ((3, 0), (0, 3), (-1, 0), (0, -1)):
            with pytest.raises(GradrecError):
                model.predict(user, item)


class TestBiasedSvdFit:
    def test_recovers_planted_rank2_structure(self):
        table, _ = synthetic.planted_factor_ratings(15, 12, rank=2, density=0.7,
                                                    mean=3.0, seed=4)
        model = BiasedSvd.for_table(table, k=2, l2=0.0, seed=1)
        train(model, {"train": table}, E.Adam(lr=0.05), epochs=220, batch_size=64, seed=2)
        pairs = [(model.predict(x.user, x.item), x.rating) for x in table.interactions]
        rmse = float(np.sqrt(np.mean([(p - a) ** 2 for p, a in pairs])))
        assert rmse < 0.05

    def test_strong_regularization_shrinks_factors(self):
        table, _ = synthetic.planted_factor_ratings(8, 8, rank=2, density=0.8, seed=0)
        model = BiasedSvd.for_table(table, k=2, l2=1e3, seed=1)
        norms = [float(np.linalg.norm(model.params["user_factors"]))]
        for _ in range(4):
            train(model, {"train": table}, E.Sgd(lr=0.001), epochs=5, batch_size=32, seed=3)
            norms.append(float(np.linalg.norm(model.params["user_factors"])))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_gradient_check(self):
        table, _ = synthetic.planted_factor_ratings(3, 3, rank=2, density=1.0, seed=2)
        model = BiasedSvd.for_table(table, k=4, l2=0.01, seed=5)
        users, items, ratings = table.users, table.items, table.ratings
        result = E.grad_check(lambda lv: model.build_loss(lv, (users, items, ratings)),
                              model.params)
        assert result.max_rel_err < 1e-4

    def test_fixed_seed_reproduces_loss_trace(self):
        table, _ = synthetic.planted_factor_ratings(6, 6, rank=2, seed=3)

        def run():
            model = BiasedSvd.for_table(table, k=2, l2=0.01, seed=9)
            return train(model, {"train": table}, E.Adam(lr=0.01), epochs=5, batch_size=16,
                         seed=11)

        assert run() == run()

    def test_divergence_aborts_with_epoch_and_loss(self):
        table, _ = synthetic.planted_factor_ratings(6, 6, rank=2, seed=3)
        model = BiasedSvd.for_table(table, k=2, l2=0.0, seed=9)
        steps = []
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergedError) as err:
            train(model, {"train": table}, E.Sgd(lr=1e9), epochs=50, batch_size=16, seed=1,
                  on_step=lambda params: steps.append(len(steps)))
        assert not np.isfinite(err.value.loss)
        # the failing step is the one after the last completed step
        assert err.value.step == len(steps)
        steps_per_epoch = -(-len(table) // 16)
        assert err.value.epoch == err.value.step // steps_per_epoch
        assert f"epoch {err.value.epoch}, step {err.value.step}:" in str(err.value)


def fm_raw(model, features):
    """The unclipped score of one row of (index, value) pairs through ``raw``."""
    index = np.array([[i for i, _ in features]], dtype=np.int64).reshape(1, -1)
    value = np.array([[x for _, x in features]], dtype=np.float64).reshape(1, -1)
    return float(model.raw(model.const_leaves(), index, value).value[0])


class TestFmScore:
    def test_pairwise_term_matches_bruteforce_example(self):
        model = FactorizationMachine(n_features=3, k=2, seed=0)
        model.params["factors"][:] = [[1, 1], [2, 0], [0, 3]]
        model.params["linear"][:] = 0.0
        model.params["intercept"] = np.asarray(0.0)
        # <v1,v2> + <v1,v3> + <v2,v3> = 2 + 3 + 0
        assert fm_raw(model, ((0, 1.0), (1, 1.0), (2, 1.0))) == pytest.approx(5.0)

    def test_orthogonal_factors_cancel(self):
        model = FactorizationMachine(n_features=2, k=2, seed=0)
        model.params["factors"][:] = [[1, 0], [0, 1]]
        model.params["linear"][:] = [0.1, -0.1]
        model.params["intercept"] = np.asarray(0.5)
        assert fm_raw(model, ((0, 1.0), (1, 1.0))) == pytest.approx(0.5)

    def test_empty_row_gives_intercept(self):
        model = FactorizationMachine(n_features=4, k=3, seed=1)
        model.params["intercept"] = np.asarray(0.75)
        assert fm_raw(model, ()) == pytest.approx(0.75)

    def test_identity_against_bruteforce_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            k = int(rng.integers(1, 8))
            model = FactorizationMachine(n_features=n, k=k, seed=int(rng.integers(1e6)))
            model.params["factors"] = rng.normal(size=(n, k))
            model.params["linear"] = rng.normal(size=n)
            model.params["intercept"] = np.asarray(rng.normal())
            x = rng.normal(size=n)
            want = fm_bruteforce(float(model.params["intercept"]), model.params["linear"],
                                 model.params["factors"], x)
            assert abs(fm_raw(model, tuple(enumerate(x.tolist()))) - want) < 1e-9

    def test_index_out_of_range(self):
        model = FactorizationMachine(n_features=2, k=2)
        with pytest.raises(GradrecError):
            fm_raw(model, ((5, 1.0),))

    def test_score_matrix_is_the_one_hot_forward(self):
        rng = np.random.default_rng(5)
        n_users, n_items = 4, 6
        model = FactorizationMachine(n_users + n_items, k=3, label_range=(-50.0, 50.0))
        with pytest.raises(GradrecError):  # served no uirt data: no users
            model.score_matrix(np.array([0]))
        model.params["factors"] = rng.normal(size=(n_users + n_items, 3))
        model.params["linear"] = rng.normal(size=n_users + n_items)
        model.params["intercept"] = np.asarray(rng.normal())
        model.n_users = n_users
        users = np.array([2, 0, 3])
        rows = model.score_matrix(users)
        assert rows.shape == (users.size, n_items)
        for r, user in enumerate(users.tolist()):
            for item in range(n_items):
                x = np.zeros(n_users + n_items)
                x[user] = x[n_users + item] = 1.0
                want = fm_bruteforce(float(model.params["intercept"]), model.params["linear"],
                                     model.params["factors"], x)
                assert abs(rows[r, item] - want) < 1e-12
        with pytest.raises(GradrecError):  # a user id must not reach the item features
            model.score(n_users, 0)

    def test_score_matrix_matches_predict_rows_on_the_grid(self):
        rng = np.random.default_rng(11)
        n_users, n_items, k = 7, 9, 4
        model = FactorizationMachine(n_users + n_items, k, label_range=(-1e3, 1e3))
        model.params["factors"] = rng.normal(size=(n_users + n_items, k))
        model.params["linear"] = rng.normal(size=n_users + n_items)
        model.params["intercept"] = np.asarray(rng.normal())
        model.n_users = n_users
        users = np.arange(n_users)
        index = np.stack([np.repeat(users, n_items),
                          np.tile(np.arange(n_users, n_users + n_items), n_users)], axis=1)
        want = model.predict_rows(index, np.ones(index.shape)).reshape(n_users, n_items)
        np.testing.assert_allclose(model.score_matrix(users), want, rtol=0, atol=1e-12)
        for bad in (-1, n_users):  # neither may reach the item features
            with pytest.raises(IndexError):
                model.score_matrix(np.array([0, bad]))


def planted_fm_rows(n_rows, n_features, k, seed):
    """Rows of a planted FM, every feature listed (absent ones at value 0)."""
    rng = np.random.default_rng(seed)
    w0 = rng.normal()
    w = rng.normal(size=n_features)
    v = rng.normal(size=(n_features, k))
    xs = []
    for _ in range(n_rows):
        xs.append(np.where(rng.random(n_features) < 0.5, rng.normal(size=n_features), 0.0))
    labels = np.array([fm_bruteforce(w0, w, v, x) for x in xs])
    return data.FeatureRows(labels, np.tile(np.arange(n_features), (n_rows, 1)), np.array(xs),
                            n_features)


def fm_for(rows, k, l2, seed):
    return FactorizationMachine(rows.n_features, k, l2=l2, seed=seed,
                                label_range=(rows.labels.min(), rows.labels.max()))


class TestFmFit:
    def test_recovers_planted_fm(self):
        rows = planted_fm_rows(80, n_features=6, k=2, seed=3)
        model = fm_for(rows, k=2, l2=0.0, seed=1)
        train(model, {"train_rows": rows}, E.Adam(lr=0.05), epochs=400, batch_size=80, seed=2)
        preds = model.raw(model.const_leaves(), rows.index, rows.value).value
        rmse = float(np.sqrt(np.mean((preds - rows.labels) ** 2)))
        assert rmse < 0.05

    def test_gradient_check_regression(self):
        rows = planted_fm_rows(6, n_features=5, k=3, seed=9)
        model = fm_for(rows, k=3, l2=0.02, seed=4)
        result = E.grad_check(lambda lv: model.build_loss(lv, rows),
                              model.params)
        assert result.max_rel_err < 1e-4

    def test_overfits_single_row(self):
        row = data.FeatureRows(np.array([2.5]), np.array([[0, 2]]), np.array([[1.0, 1.5]]), 3)
        model = FactorizationMachine(3, 2, l2=0.0, label_range=(0, 5), seed=3)
        train(model, {"train_rows": row}, E.Adam(lr=0.05), epochs=400, batch_size=1, seed=1)
        assert abs(fm_raw(model, ((0, 1.0), (2, 1.5))) - 2.5) < 1e-2

    def test_fixed_seed_reproduces_loss_trace(self):
        rows = planted_fm_rows(20, n_features=5, k=2, seed=6)

        def run():
            model = fm_for(rows, k=2, l2=0.01, seed=7)
            return train(model, {"train_rows": rows}, E.Adam(lr=0.02), epochs=6, batch_size=8,
                         seed=8)

        assert run() == run()


class TestAutoRec:
    def toy_table(self):
        return synthetic.planted_factor_ratings(5, 5, rank=2, density=0.8,
                                                mean=3.0, seed=6)[0]

    def test_bias_only_network(self):
        model = ItemAutoRec(n_users=4, n_items=3, hidden=2, rating_range=(1, 5))
        model.params["encoder_w"][:] = 0.0
        model.params["decoder_w"][:] = 0.0
        model.params["decoder_b"][:] = 3.0
        model.columns = np.array([[4.0, 0.0, 0.0, 2.0]] * 3)  # every item's train column
        out = model.score_matrix(np.arange(4))
        np.testing.assert_allclose(out, 3.0)

    def test_score_matrix_reconstructs_the_served_columns(self):
        # every entry from the train rows and weights by hand, so a column
        # served for the wrong item or user shows
        table = self.toy_table()
        model = ItemAutoRec.for_table(table, hidden=3, l2=0.0, seed=6)
        rng = np.random.default_rng(7)
        for name in ("encoder_w", "encoder_b", "decoder_w", "decoder_b"):
            model.params[name] = rng.normal(size=model.params[name].shape)
        model.params["rating_min"], model.params["rating_max"] = np.asarray(-50.0), np.asarray(50.0)
        model.serve({"train": table})
        p = model.params
        users = np.array([3, 0, 4])
        rows = model.score_matrix(users)
        assert rows.shape == (users.size, table.n_items)
        for item in range(table.n_items):
            column = np.zeros(table.n_users)  # the item's train ratings over users
            for user, rated, rating in zip(table.users.tolist(), table.items.tolist(),
                                           table.ratings.tolist()):
                if rated == item:
                    column[user] = rating
            hidden = 1.0 / (1.0 + np.exp(-(p["encoder_w"] @ column + p["encoder_b"])))
            for r, user in enumerate(users.tolist()):
                want = p["decoder_w"][user] @ hidden + p["decoder_b"][user]
                assert abs(rows[r, item] - want) < 1e-12
        assert np.unique(rows).size == rows.size

    def test_hidden_is_half_at_zero_preactivation(self):
        model = ItemAutoRec(n_users=4, n_items=3, hidden=5)
        model.params["encoder_w"][:] = 0.0
        model.params["encoder_b"][:] = 0.0
        p = model.params
        z = 1.0 / (1.0 + np.exp(-(p["encoder_w"] @ np.ones(4) + p["encoder_b"])))
        np.testing.assert_allclose(z, 0.5)

    def test_empty_column_rejected(self):
        # every item column empty: nothing to reconstruct
        table = self.toy_table()
        model = ItemAutoRec.for_table(table, hidden=2, l2=0.0, seed=1)
        with pytest.raises(GradrecError, match="empty training set"):
            train(model, {"train": table.take(np.arange(0))}, E.Sgd(lr=0.1), epochs=1,
                  seed=0)

    def test_masked_gradient_check(self):
        table = self.toy_table()
        model = ItemAutoRec.for_table(table, hidden=3, l2=0.05, seed=1)
        model.load_columns(table)
        items = np.arange(table.n_items)
        result = E.grad_check(lambda lv: model.build_loss(lv, items),
                              model.params)
        assert result.max_rel_err < 1e-4

    def test_unobserved_inputs_do_not_affect_loss(self):
        table = self.toy_table()
        model = ItemAutoRec.for_table(table, hidden=3, l2=0.0, seed=2)
        model.load_columns(table)
        items = np.arange(table.n_items)
        leaves = {n: E.param(model.params[n], n) for n in model.params}
        base_loss = float(model.build_loss(leaves, items).value)
        # perturb an unobserved input cell
        unobserved = np.argwhere(model.mask == 0.0)
        item, user = unobserved[0]
        model.columns[item, user] += 123.0
        leaves = {n: E.param(model.params[n], n) for n in model.params}
        assert float(model.build_loss(leaves, items).value) == pytest.approx(base_loss)

    def test_overfits_toy_matrix(self):
        table = self.toy_table()
        model = ItemAutoRec.for_table(table, hidden=8, l2=0.0, seed=3)
        trace = train(model, {"train": table}, E.Adam(lr=0.05), epochs=500, seed=4)
        assert trace[-1] < 0.05 * trace[0]

    def test_regularization_shrinks_weights(self):
        table = self.toy_table()
        runs = {}
        for l2 in (0.0, 5.0):
            model = ItemAutoRec.for_table(table, hidden=4, l2=l2, seed=5)
            train(model, {"train": table}, E.Adam(lr=0.01), epochs=150, seed=6)
            runs[l2] = float(np.linalg.norm(model.params["decoder_w"]))
        assert runs[5.0] < runs[0.0]

    def test_fixed_seed_reproduces_loss_trace(self):
        table = self.toy_table()

        def run():
            model = ItemAutoRec.for_table(table, hidden=4, l2=0.01, seed=8)
            return train(model, {"train": table}, E.Adam(lr=0.02), epochs=8, batch_size=2, seed=9)

        assert run() == run()
