"""Tests of the benchmark's own helpers: the tail rule, span self time,
the recommend oracle, and the validity of the workload configs."""

from __future__ import annotations

import types

import pytest

import harness


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tail_has_exactly_ten_samples_beyond_it():
    samples = list(range(1, 101))  # 1..100 in reverse: input order must not matter
    samples.reverse()
    assert harness.tail_percentile(samples) == (90, 90)
    assert sum(1 for s in samples if s > 90) == 10
    assert harness.tail_percentile(range(1, 21)) == (50, 10)
    assert harness.tail_percentile(range(1, 1001)) == (99, 990)


def test_tail_needs_eleven_samples():
    assert harness.tail_percentile(range(11)) == (9, 0)
    with pytest.raises(ValueError):
        harness.tail_percentile(range(10))


def test_nested_spans_report_self_time():
    clock = FakeClock()
    tracer = harness.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def inner():
        clock.now += 1.0
        wrapped_leaf(2.0)
        wrapped_leaf(3.0)

    def outer():
        clock.now += 0.5
        wrapped_inner()
        wrapped_leaf(4.0)

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer, keep=True)()

    assert tracer.self_s["leaf"] == pytest.approx(9.0)
    assert tracer.self_s["inner"] == pytest.approx(1.0)
    assert tracer.self_s["outer"] == pytest.approx(0.5)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.samples["outer"][0])
    assert dict(tracer.calls) == {"leaf": 3, "inner": 1, "outer": 1}


def test_reentry_runs_inside_the_outer_span_and_hooks_stay_out():
    clock = FakeClock()
    tracer = harness.Tracer(clock=clock)

    def draw():
        clock.now += 1.0

    def draw_many():
        for _ in range(3):
            wrapped_draw()

    def slow_hook(args, kwargs, result):
        clock.now += 100.0

    wrapped_draw = tracer.wrap("sampler", draw)
    many = tracer.wrap("sampler", draw_many, after=slow_hook)
    tracer.wrap("step", lambda: many())()

    assert tracer.calls["sampler"] == 1
    assert tracer.self_s["sampler"] == pytest.approx(3.0)
    assert tracer.self_s["step"] == pytest.approx(0.0)
    assert tracer.hooks_s == pytest.approx(100.0)


def test_patch_and_restore_to_mark():
    class Model:
        def score(self, user, item):
            return float(user + item)

    module = types.SimpleNamespace(load=lambda: "data")
    original_score = Model.__dict__["score"]
    tracer = harness.Tracer()
    tracer.patch(module, "load", "data.load")
    mark = tracer.mark()
    tracer.patch(Model, "score", "models.score")

    assert Model().score(1, 2) == 3.0 and module.load() == "data"
    assert tracer.calls["models.score"] == 1 and tracer.calls["data.load"] == 1
    tracer.restore(mark)
    assert Model.__dict__["score"] is original_score
    assert module.load.__name__ == "traced"
    tracer.restore()
    assert module.load.__name__ == "<lambda>"


def test_oracle_sorts_by_score_then_raw_id_and_rejects_a_missorted_answer():
    scores = {0: 0.5, 1: 0.9, 2: 0.5, 3: 0.1}
    item_ids = ["i9", "i1", "i10", "i3"]

    def score(user, item):
        return scores[item]

    expected = harness.oracle_lines(score, 4, item_ids, user=0, n=3)
    # ties at 0.5 break by raw id as a string: "i10" < "i9"
    assert expected == ["i1\t0.900000", "i10\t0.500000", "i9\t0.500000"]
    assert harness.recommend_matches("i1\t0.900000\ni10\t0.500000\ni9\t0.500000\n", expected)
    missorted = "i1\t0.900000\ni9\t0.500000\ni10\t0.500000\n"
    assert not harness.recommend_matches(missorted, expected)
    assert not harness.recommend_matches("i1\t0.900000\ni10\t0.500000\n", expected)


def test_workload_configs_parse(tmp_path):
    cfgmod = pytest.importorskip("gradrec.config")
    import workloads

    for workload, configs in workloads.CONFIGS.items():
        for name, entry in configs.items():
            cfg = cfgmod.parse_config(workloads.config_text(tmp_path / "d.uirt", entry))
            assert cfg.model.name == name, workload
