"""Every registered model through the one training loop: config
validation, the on_step hook, seeded reproducibility, bitwise parity with
the reference embedding gradient and Adam, and the checkpoint round-trip,
from nothing but the registry entry."""

import numpy as np
import pytest

from gradrec import checkpoint as ckpt
from gradrec import config as cfgmod
from gradrec import runner
from gradrec.engine import make_optimizer, optim, tape
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
        optimizer_steps.append(args[5] if len(args) > 5 else kwargs["step"])
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
    monkeypatch.setitem(tape._VJP, "embedding_lookup", reference_embedding_vjp)
    monkeypatch.setattr(optim.Adam, "step", reference_adam_step)
    want_tensors, want_trace = fit()
    assert trace == want_trace
    assert list(tensors) == list(want_tensors)
    for key, value in want_tensors.items():
        assert_bitwise(tensors[key], value)
