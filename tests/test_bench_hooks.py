"""The benchmark in ``bench/`` patches gradrec functions by name. A traced
segment must find every name it lists, and restoring the tracer must put
the original functions back, so that renaming or deleting one fails here
rather than in a benchmark run."""

import sys
from pathlib import Path

from gradrec import metrics, runner
from gradrec.models import base, ranking, sequential

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _gradrec_classes() -> list[type]:
    return [value for name, module in list(sys.modules.items())
            if name == "gradrec" or name.startswith("gradrec.")
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name]


def test_traced_segment_patches_every_listed_name(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    hooked = [(base.NegativeSampler, "draw"), (base.NegativeSampler, "draw_many"),
              (ranking.Cml, "project"), (sequential.AttRec, "project"),
              (metrics, "rank_candidates"), (metrics, "ranking_metrics"),
              (metrics, "evaluate_ranking"), (runner, "evaluate_model")]
    originals = [getattr(owner, name) for owner, name in hooked]
    run = workloads.Run("serve-full", 1, 1.0, True, tmp_path)
    classes = _gradrec_classes()
    before = {cls: dict(vars(cls)) for cls in classes}
    try:
        with run.segment(True):
            assert all(getattr(owner, name) is not original
                       for (owner, name), original in zip(hooked, originals))
    finally:
        run.tracer.restore()
        # restoring an inherited method (BprMf.score is Model.score) leaves a
        # copy in the subclass, which a later patch of the base would not reach
        for cls in classes:
            for name in set(vars(cls)) - set(before[cls]):
                delattr(cls, name)
    assert all(getattr(owner, name) is original
               for (owner, name), original in zip(hooked, originals))
    assert "score" not in ranking.BprMf.__dict__
    for cls in classes:
        assert vars(cls).keys() == before[cls].keys(), cls
        assert all(vars(cls)[name] is value for name, value in before[cls].items()), cls
