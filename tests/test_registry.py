"""Every registered model through the one training loop: config
validation, the on_step hook, seeded reproducibility, bitwise parity with
the reference embedding gradient and Adam, and the checkpoint round-trip,
from nothing but the registry entry. Then the one scoring path:
``score_matrix`` against the training forward, and the per-pair API,
``recommend`` and evaluation reading nothing but its rows, and a
checkpoint serving on its own exactly as the data it was trained on."""

import math

import numpy as np
import pytest

from gradrec import checkpoint as ckpt
from gradrec import config as cfgmod
from gradrec import data as datamod
from gradrec import engine as E
from gradrec import metrics, runner
from gradrec.engine import make_optimizer, optim, tape
from gradrec.errors import GradrecError
from gradrec.models import MODELS, base

from test_acceptance import ALL_MODEL_CONFIGS, model_config_text
from test_engine import assert_bitwise, reference_adam_step, reference_embedding_vjp


def test_registry_names_match_the_round_trip_configs():
    # criterion 7 round-trips exactly these configs, so it covers every model
    assert list(MODELS) == list(ALL_MODEL_CONFIGS)


@pytest.mark.parametrize("name", list(MODELS))
def test_registered_model_trains_through_the_one_loop(name, ratings_file, implicit_file,
                                                      tmp_path, monkeypatch):
    data_file = ratings_file if ALL_MODEL_CONFIGS[name][0] == "ratings" else implicit_file
    cfg = cfgmod.parse_config(model_config_text(name, data_file))
    assert cfg.model.task == MODELS[name].task
    bundle = runner.prepare_data(cfg)

    optimizer_steps = []
    real_step = base.gradient_step

    def counted_step(*args, **kwargs):
        optimizer_steps.append(args[4] if len(args) > 4 else kwargs["step"])
        return real_step(*args, **kwargs)

    monkeypatch.setattr(base, "gradient_step", counted_step)

    def fit():
        model = runner.build_model(cfg, **bundle)
        hooks = []
        t = cfg.train
        trace = base.train(model, bundle, make_optimizer(t.optimizer, t.lr), t.epochs,
                           t.batch_size, seed=t.seed, neg_samples=t.neg_samples,
                           on_step=lambda params: hooks.append(params is model.params))
        return model, trace, hooks

    model, trace, hooks = fit()
    assert optimizer_steps == list(range(len(optimizer_steps))) and optimizer_steps
    assert len(hooks) == len(optimizer_steps) and all(hooks)
    assert len(trace) == cfg.train.epochs and all(np.isfinite(trace))

    again, trace_again, _ = fit()
    assert trace_again == trace
    assert list(again.params) == list(model.params)
    for key, value in model.params.items():
        assert np.array_equal(again.params[key], value), key

    path = tmp_path / f"{name}.drec"
    ckpt.save_checkpoint(path, name, cfg.text, runner.checkpoint_tensors(cfg, model))
    _, restored, _ = runner.load_model(path)
    assert type(restored) is type(model)
    assert list(restored.params) == list(model.params)
    for key, value in model.params.items():
        assert np.array_equal(restored.params[key], value), key


# the tensors no training step touches, by model: constants read as floats
# or not at all, and the NeuMf heads a variant's graph skips
NOT_STEPPED = {
    "biasedsvd": lambda n: n in ("global_mean", "rating_min", "rating_max"),
    "fm": lambda n: n in ("label_min", "label_max"),
    "autorec": lambda n: n in ("rating_min", "rating_max"),
    "gmf": lambda n: not n.startswith("gmf_"),
    "mlp": lambda n: not n.startswith("mlp_"),
    "neumf": lambda n: n in ("gmf_out", "mlp_out_w", "mlp_out_b"),
}


@pytest.mark.parametrize("name", list(MODELS))
def test_optimizer_steps_exactly_the_tensors_the_loss_reaches(name, ratings_file,
                                                              implicit_file):
    data_file = ratings_file if ALL_MODEL_CONFIGS[name][0] == "ratings" else implicit_file
    cfg = cfgmod.parse_config(model_config_text(name, data_file))
    bundle = runner.prepare_data(cfg)
    model = runner.build_model(cfg, **bundle)
    initial = {n: value.copy() for n, value in model.params.items()}
    frozen = NOT_STEPPED.get(name, lambda n: False)
    want = [n for n in model.params if not frozen(n)]

    t = cfg.train
    optimizer = make_optimizer(t.optimizer, t.lr)
    real_step = optimizer.step
    stepped = []

    def spy(params, grads):
        stepped.append(list(params))
        return real_step(params, grads)

    optimizer.step = spy
    base.train(model, bundle, optimizer, t.epochs, t.batch_size, seed=t.seed,
               neg_samples=t.neg_samples)
    assert stepped and all(names == want for names in stepped)
    for n in model.params:
        if frozen(n):
            assert_bitwise(model.params[n], initial[n])


@pytest.mark.parametrize("name", list(MODELS))
def test_training_equals_reference_scatter_and_adam_bitwise(name, ratings_file, implicit_file,
                                                            monkeypatch):
    data_file = ratings_file if ALL_MODEL_CONFIGS[name][0] == "ratings" else implicit_file
    cfg = cfgmod.parse_config(model_config_text(name, data_file))
    assert cfg.train.optimizer == "adam"
    bundle = runner.prepare_data(cfg)

    def fit():
        model = runner.build_model(cfg, **bundle)
        t = cfg.train
        trace = base.train(model, bundle, make_optimizer(t.optimizer, t.lr), t.epochs,
                           t.batch_size, seed=t.seed, neg_samples=t.neg_samples)
        return runner.checkpoint_tensors(cfg, model), trace

    tensors, trace = fit()
    monkeypatch.setitem(tape._OPS, "embedding_lookup",
                        (tape._OPS["embedding_lookup"][0], reference_embedding_vjp))
    monkeypatch.setattr(optim.Adam, "step", reference_adam_step)
    want_tensors, want_trace = fit()
    assert trace == want_trace
    assert list(tensors) == list(want_tensors)
    for key, value in want_tensors.items():
        assert_bitwise(tensors[key], value)


def trained(name, ratings_file, implicit_file):
    data_file = ratings_file if ALL_MODEL_CONFIGS[name][0] == "ratings" else implicit_file
    cfg = cfgmod.parse_config(model_config_text(name, data_file))
    bundle = runner.prepare_data(cfg)
    model = runner.build_model(cfg, **bundle)
    runner.fit_model(cfg, model, bundle)
    return cfg, model, bundle


def served_users(model, bundle) -> np.ndarray:
    """Every user the model can score: sequence models need a history."""
    if bundle["task"] != "sequential":
        return np.arange(bundle["train"].n_users)
    return np.flatnonzero(model.windows[:, -1] != model.padding_id)


def sigmoid(node):
    return node.sigmoid().value


def training_forward(name, model, bundle, users, items):
    """The score of each (user, item) pair from the pieces ``build_loss``
    differentiates, on constant leaves; the rating models' per-pair
    serving formulas are written out here."""
    leaves = model.const_leaves()
    p = model.params
    lookup = E.embedding_lookup
    if name == "bprmf":
        return (lookup(leaves["user_factors"], users)
                * lookup(leaves["item_factors"], items)).sum(axis=1).value
    if name == "cml":
        return -E.sq_l2_dist(lookup(leaves["user_points"], users),
                             lookup(leaves["item_points"], items)).value
    if name in ("gmf", "mlp", "neumf"):
        return sigmoid(model.logits(leaves, users, items))
    if name == "cdae":
        out = []
        for user, item in zip(users.tolist(), items.tolist()):
            vec = model._inputs[user].astype(np.float64)
            z = (E.matmul(E.const(vec), leaves["encoder_w"])
                 + lookup(leaves["user_embed"], [user]).reshape((p["hidden_bias"].size,))
                 + leaves["hidden_bias"]).sigmoid()
            logit = (E.matmul(lookup(leaves["decoder_w"], [item]), z)
                     + lookup(leaves["decoder_bias"], [item]))
            out.append(sigmoid(logit)[0])
        return np.array(out)
    if name == "prme":
        prevs = model.windows[users, 0]
        d_pref = E.sq_l2_dist(lookup(leaves["user_embed"], users),
                              lookup(leaves["pref_item"], items))
        d_seq = E.sq_l2_dist(lookup(leaves["seq_item"], prevs),
                             lookup(leaves["seq_item"], items))
        return -(model.alpha * d_pref + (1.0 - model.alpha) * d_seq).value
    if name in ("caser", "attrec"):
        windows = model.windows[users]
        if name == "caser":
            zu = model.user_vectors(leaves, users, windows)
            return model.pair_logits(leaves, zu, np.arange(users.size), items).value
        return -model.distances(leaves, users, model.intents(leaves, windows), items).value
    if name == "fm":
        n_users = model.n_users
        raw = [float(p["intercept"] + p["linear"][u] + p["linear"][n_users + i]
                     + p["factors"][u] @ p["factors"][n_users + i])
               for u, i in zip(users.tolist(), items.tolist())]
        return np.clip(raw, float(p["label_min"]), float(p["label_max"]))
    lo, hi = float(p["rating_min"]), float(p["rating_max"])
    if name == "biasedsvd":
        raw = [float(p["global_mean"] + p["user_bias"][u] + p["item_bias"][i]
                     + p["user_factors"][u] @ p["item_factors"][i])
               for u, i in zip(users.tolist(), items.tolist())]
        return np.clip(raw, lo, hi)
    assert name == "autorec"
    out = []
    for user, item in zip(users.tolist(), items.tolist()):
        z = 1.0 / (1.0 + np.exp(-(p["encoder_w"] @ model.columns[item] + p["encoder_b"])))
        out.append(float(np.clip((p["decoder_w"] @ z + p["decoder_b"])[user], lo, hi)))
    return np.array(out)


@pytest.mark.parametrize("name", list(MODELS))
def test_score_matrix_equals_training_forward(name, ratings_file, implicit_file):
    _, model, bundle = trained(name, ratings_file, implicit_file)
    users = served_users(model, bundle)
    rows = model.score_matrix(users)
    n_items = bundle["train"].n_items
    assert rows.shape == (users.size, n_items) and rows.dtype == np.float64
    assert np.unique(rows).size > 1  # a constant score would make every parity check vacuous
    pair_users, pair_items = np.repeat(users, n_items), np.tile(np.arange(n_items), users.size)
    want = training_forward(name, model, bundle, pair_users, pair_items)
    np.testing.assert_allclose(rows.ravel(), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", list(MODELS))
def test_per_pair_score_and_recommend_read_the_row(name, ratings_file, implicit_file,
                                                   tmp_path):
    cfg, model, bundle = trained(name, ratings_file, implicit_file)
    path = tmp_path / f"{name}.drec"
    ckpt.save_checkpoint(path, name, cfg.text, runner.checkpoint_tensors(cfg, model))
    table = bundle["table"]
    per_pair = model.predict if bundle["task"] == "rating" else model.score
    for user in served_users(model, bundle)[:3].tolist():
        row = model.score_matrix(np.array([user]))[0]
        for item in range(table.n_items):
            assert per_pair(user, item) == row[item]  # bitwise
        want = sorted((-row[item], table.item_ids[item]) for item in range(table.n_items))
        got = runner.recommend(path, table.user_ids[user], table.n_items)
        assert got == [(raw, -neg) for neg, raw in want]


@pytest.mark.parametrize("name", list(MODELS))
def test_evaluation_scores_rows_not_pairs(name, ratings_file, implicit_file, monkeypatch):
    # per-pair scoring must not creep back into evaluation
    cfg, model, bundle = trained(name, ratings_file, implicit_file)
    want = runner.evaluate_model(cfg, model, bundle).to_text()
    monkeypatch.setattr(metrics, "BLOCK", 4)  # several blocks on the fixture data
    counts = {"pairs": 0, "rows": 0}

    def per_pair(*args, **kwargs):
        counts["pairs"] += 1
        raise AssertionError("per-pair scoring during evaluation")

    real_rows = type(model).score_matrix

    def rows(self, users):
        counts["rows"] += 1
        return real_rows(self, users)

    monkeypatch.setattr(base.Model, "score", per_pair)
    monkeypatch.setattr(base.Model, "predict", per_pair)
    monkeypatch.setattr(type(model), "score_matrix", rows)
    report = runner.evaluate_model(cfg, model, bundle)
    assert counts["pairs"] == 0
    assert counts["rows"] <= math.ceil(np.unique(bundle["test"].users).size / 4)
    assert report.to_text() == want  # the block size does not change the report


@pytest.mark.parametrize("name", list(MODELS))
def test_score_cache_follows_every_optimizer_step(name, ratings_file, implicit_file):
    cfg, model, bundle = trained(name, ratings_file, implicit_file)
    user = int(served_users(model, bundle)[0])
    model.score(user, 0)  # fills the one-row cache
    fresh = []

    def check(params):
        fresh.append(model.score(user, 0) == model.score_matrix(np.array([user]))[0, 0])

    t = cfg.train
    base.train(model, bundle, make_optimizer(t.optimizer, t.lr), t.epochs, t.batch_size,
               seed=t.seed, neg_samples=t.neg_samples, on_step=check)
    assert fresh and all(fresh)


@pytest.mark.parametrize("name", list(MODELS))
def test_checkpoint_alone_serves_as_the_data_does(name, ratings_file, implicit_file, tmp_path,
                                                  monkeypatch):
    data_file = ratings_file if ALL_MODEL_CONFIGS[name][0] == "ratings" else implicit_file
    cfg = cfgmod.parse_config(model_config_text(name, data_file))
    bundle = runner.prepare_data(cfg)
    model = runner.build_model(cfg, **bundle)
    runner.fit_model(cfg, model, bundle)
    path = tmp_path / f"{name}.drec"
    ckpt.save_checkpoint(path, name, cfg.text, runner.checkpoint_tensors(cfg, model))

    _, served, stored = runner.load_model(path)
    reference = MODELS[name].restore(dict(model.params), cfg)
    fresh = runner.prepare_data(cfg)
    reference.serve(fresh)

    for part in ("train", "test"):
        got, want = stored[part], bundle[part]
        for column in ("users", "items", "ratings", "timestamps"):
            assert_bitwise(getattr(got, column), getattr(want, column))
        assert (got.user_ids, got.item_ids) == (want.user_ids, want.item_ids)
        assert (got.user_index, got.item_index) == (want.user_index, want.item_index)
    table = stored["table"]
    assert (table.user_index, table.item_ids) == (bundle["table"].user_index,
                                                  bundle["table"].item_ids)

    users = served_users(reference, bundle)
    assert np.array_equal(served_users(served, stored), users)
    rows = served.score_matrix(users)
    assert_bitwise(rows, reference.score_matrix(users))
    assert np.unique(rows).size > 5

    # evaluate under the training config takes its split from the checkpoint
    want_report = runner.evaluate_model(cfg, reference, fresh).to_text()

    def parse(*args, **kwargs):
        raise AssertionError("evaluate re-read the data file")

    monkeypatch.setattr(datamod, "load_interactions", parse)
    monkeypatch.setattr(datamod, "parse_libfm", parse)
    eval_cfg, evaluated, eval_bundle = runner.load_model(path, cfg)
    assert runner.evaluate_model(eval_cfg, evaluated, eval_bundle).to_text() == want_report


@pytest.mark.parametrize("name", list(MODELS))
def test_score_matrix_rejects_user_ids_out_of_range(name, ratings_file, implicit_file):
    # numpy would serve user -1 the last user's row
    _, model, bundle = trained(name, ratings_file, implicit_file)
    n_users = bundle["train"].n_users
    for user in (-1, n_users):
        with pytest.raises(IndexError):
            model.score_matrix(np.array([0, user]))
        with pytest.raises(GradrecError, match="id out of range"):
            model.score(user, 0)
