"""The three gradrec benchmark workloads and the metrics they report.

Each workload is a closed loop with one client: it calls ``gradrec.cli.main``
in-process, waits for the command to finish, then sends the next one. The
loop repeats a fixed *pass* of commands until the run length is used up,
so every end-to-end metric is a median or a sum over repeated passes.

* ``train-mf``: ``gradrec train`` for bprmf, cml and biasedsvd on the
  MovieLens-100K-shaped corpus, each followed by a few ``recommend``
  calls. A few large ops per step over whole tables: the negative
  sampler, dense embedding gradients and Adam.
* ``train-seq``: the same for caser and attrec on a sparser corpus of the
  same shape. One small sub-graph per instance, so per-op dispatch on the
  tape dominates and the sampler barely shows.
* ``serve-full``: ``gradrec evaluate`` under the full protocol for bprmf,
  prme and cdae, and ``gradrec recommend --n 10`` over all four
  checkpoints (neumf too). Training happens before and after the loop.
  Time goes to per-pair scoring, list sorts, and re-reading the data on
  every call.

Inputs come from ``synthetic.desk_scale_ratings`` seeded by the workload
seed. They are generated before any timing and cached on disk by
(generator arguments, seed); gradrec sees only the data file and configs.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness

WORK = Path(__file__).resolve().parent / ".work"

# desk_scale_ratings arguments per workload. train-mf is the desk corpus;
# train-seq keeps its shape with fewer ratings so a caser and an attrec
# epoch fit in one pass; serve-full keeps the desk's users (so quality
# averages over as many) with fewer items, so that a full-protocol pass
# over three models takes a few seconds.
CORPUS = {
    "train-mf": {"n_users": 943, "n_items": 1682, "n_ratings": 100_000},
    "train-seq": {"n_users": 943, "n_items": 1682, "n_ratings": 14_000},
    "serve-full": {"n_users": 943, "n_items": 400, "n_ratings": 24_000},
}

IMPLICIT = "split = loo\nbinarize_threshold = 4.0"
SAMPLED = "cutoffs = 10\nprotocol = sampled:100"
FULL = "cutoffs = 10\nprotocol = full"

# model name -> (data split lines, [model], [train], [eval] or None)
CONFIGS = {
    "train-mf": {
        "bprmf": (IMPLICIT, "name = bprmf\nk = 32",
                  "optimizer = adam\nlr = 0.02\nl2 = 0.002\nepochs = 5\nbatch_size = 1024\n"
                  "neg_samples = 4\nseed = 7", SAMPLED),
        "cml": (IMPLICIT, "name = cml\nk = 32\nmargin = 0.5",
                "optimizer = adam\nlr = 0.02\nl2 = 0.0\nepochs = 5\nbatch_size = 1024\n"
                "neg_samples = 4\nseed = 7", SAMPLED),
        "biasedsvd": ("split = random:0.2", "name = biasedsvd\nk = 32",
                      "optimizer = adam\nlr = 0.01\nl2 = 0.02\nepochs = 2\nbatch_size = 1024\n"
                      "seed = 7", None),
    },
    "train-seq": {
        "caser": (IMPLICIT, "name = caser\nk = 16\nL = 5",
                  "optimizer = adam\nlr = 0.01\nl2 = 0.0\nepochs = 1\nbatch_size = 256\nseed = 7",
                  SAMPLED),
        "attrec": (IMPLICIT,
                   "name = attrec\nk = 16\nL = 5\nomega = 0.3\nmargin = 0.5\nclip_rho = 1.0",
                   "optimizer = adam\nlr = 0.01\nl2 = 0.0\nepochs = 1\nbatch_size = 256\nseed = 7",
                   SAMPLED),
    },
    "serve-full": {
        "bprmf": (IMPLICIT, "name = bprmf\nk = 32",
                  "optimizer = adam\nlr = 0.02\nl2 = 0.002\nepochs = 5\nbatch_size = 256\n"
                  "neg_samples = 4\nseed = 7", FULL),
        "prme": (IMPLICIT, "name = prme\nk = 32\nalpha = 0.5",
                 "optimizer = adam\nlr = 0.02\nl2 = 0.002\nepochs = 5\nbatch_size = 256\nseed = 7",
                 FULL),
        "cdae": (IMPLICIT, "name = cdae\nk = 32\ndropout_q = 0.2",
                 "optimizer = adam\nlr = 0.01\nl2 = 0.0\nepochs = 2\nseed = 7", FULL),
        "neumf": (IMPLICIT, "name = neumf\nk = 16",
                  "optimizer = adam\nlr = 0.01\nl2 = 0.0\nepochs = 1\nbatch_size = 256\n"
                  "neg_samples = 4\nseed = 7", FULL),
    },
}
EVALUATED = ("bprmf", "prme", "cdae")  # serve-full: full-protocol evaluate per pass
RECOMMEND_N = 10
RECOMMENDS_PER_PASS = 12  # serve-full
# recommend calls per checkpoint after each train: at the run length in
# BENCHMARK.json a run makes more than 20, so the tail is past the median
RECOMMENDS_PER_MODEL = {"train-mf": 4, "train-seq": 3}

# layers whose self time is attributed work; runner/cli spans are glue
NAMED_LAYERS = ("config.parse", "data.load_interactions", "data.binarize", "data.split",
                "data.build_sequences", "checkpoint.load", "checkpoint.save",
                "models.sampler_build", "models.sampler_draw", "runner.fit_model",
                "models.after_step", "models.score", "models.gradient_step",
                "engine.backward", "engine.optim_step", "metrics.protocol", "metrics.rank",
                "metrics.reduce")


def corpus_file(workload: str, seed: int) -> Path:
    """The workload's data file, generated once per (arguments, seed)."""
    from gradrec import data as datamod
    from gradrec import synthetic

    spec = CORPUS[workload]
    name = "desk-{n_users}x{n_items}-{n_ratings}".format(**spec) + f"-seed{seed}.uirt"
    path = WORK / "inputs" / name
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        table = synthetic.desk_scale_ratings(**spec, seed=seed)
        partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        datamod.write_uirt(partial, table)
        os.replace(partial, path)
    return path


def config_text(data_path: Path, entry) -> str:
    split, model, train, evaluation = entry
    text = (f"[data]\npath = {data_path}\nformat = uirt\nseed = 42\n{split}\n\n"
            f"[model]\n{model}\n\n[train]\n{train}\n")
    if evaluation is not None:
        text += f"\n[eval]\n{evaluation}\n"
    return text


@dataclass
class Command:
    kind: str
    model: str
    code: int
    wall: float
    out: str
    stages: dict[str, list[float]] = field(default_factory=dict)
    user: str | None = None


class Run:
    """One workload run: stage timing, optional layer tracing, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.tracer = harness.Tracer()
        self.commands: list[Command] = []
        self.failed: set[int] = set()
        self.trainings = 0  # serve-full trainings outside the CLI, also operations
        self.unreproduced = 0  # ... and those that did not reproduce their checkpoint
        self.problems: list[str] = []
        self.quality: dict[str, dict[str, float]] = {}
        self.passes: dict[bool, list[float]] = {False: [], True: []}  # traced? -> walls
        self.traced_totals: dict[str, float] = defaultdict(float)
        self.traced_wall = 0.0
        self.traced_steps: list[float] = []
        self._install_stages()
        self._stage_mark = self.tracer.mark()

    @property
    def attempted(self) -> int:
        return len(self.commands) + self.trainings

    @property
    def failures(self) -> int:
        return len(self.failed) + self.unreproduced

    # -- instrumentation ---------------------------------------------------

    def _install_stages(self) -> None:
        """Time the runner stages each command calls; always on, a few
        spans per command, so untraced runs pay next to nothing."""
        from gradrec import runner

        t = self.tracer

        # kept as per-call samples so they split by command like the stages
        def count_examples(args, kwargs, result):
            cfg, _, bundle = args
            rows = bundle["sequences"].instances if "sequences" in bundle else \
                bundle["train"].interactions
            t.samples["runner.fit_examples"].append(len(rows) * cfg.train.epochs)

        def keep_report(args, kwargs, report):
            t.samples["runner.eval_users"].append(report.users)
            self.quality[args[0].model.name] = dict(report.values)

        t.patch(runner, "prepare_data", "runner.prepare_data", keep=True)
        t.patch(runner, "fit_model", "runner.fit_model", keep=True, after=count_examples)
        t.patch(runner, "evaluate_model", "runner.evaluate_model", keep=True, after=keep_report)
        t.patch(runner, "load_model", "runner.load_model", keep=True)
        t.patch(runner, "recommend", "runner.recommend", keep=True)

    def _install_layers(self) -> None:
        from gradrec import checkpoint, config, data, engine, metrics
        from gradrec.engine import optim, tape
        from gradrec.models import base, ranking, rating, sequential

        t = self.tracer
        counts = t.counts

        def checkpoint_bytes(args, kwargs, result):
            counts["checkpoint.bytes"] += os.path.getsize(args[0])
            counts["checkpoint.files"] += 1

        def grad_stats(args, kwargs, grads):
            for g in grads.values():
                counts["engine.grad_bytes"] += g.nbytes
                if g.ndim == 2:
                    counts["engine.grad_rows_used"] += int(np.count_nonzero(
                        np.any(g != 0.0, axis=1)))
                    counts["engine.grad_rows"] += g.shape[0]

        def optim_bytes(touches):
            # Adam reads p, g, m, v and writes p, m, v; SGD reads p, g, writes p
            def hook(args, kwargs, result):
                counts["engine.optim_bytes"] += touches * sum(p.nbytes for p in args[1].values())
            return hook

        def candidates(args, kwargs, result):
            counts["metrics.candidates_scored"] += len(result)

        t.patch(config, "parse_config", "config.parse")
        for fn in ("load_interactions", "binarize", "split", "build_sequences"):
            t.patch(data, fn, f"data.{fn}")
        t.patch(checkpoint, "load_checkpoint", "checkpoint.load", after=checkpoint_bytes)
        t.patch(checkpoint, "save_checkpoint", "checkpoint.save", after=checkpoint_bytes)
        t.patch(base.NegativeSampler, "__init__", "models.sampler_build")
        t.patch(base.NegativeSampler, "draw", "models.sampler_draw")
        t.patch(base.NegativeSampler, "draw_many", "models.sampler_draw")
        t.patch(base, "gradient_step", "models.gradient_step", keep=True)
        t.patch(engine, "backward", "engine.backward", after=grad_stats)
        t.patch(optim.Adam, "step", "engine.optim_step", after=optim_bytes(7))
        t.patch(optim.Sgd, "step", "engine.optim_step", after=optim_bytes(3))
        t.count(tape, "forward", "engine.forward_ops")
        t.patch(ranking.Cml, "project", "models.after_step")
        t.patch(sequential.AttRec, "project", "models.after_step")
        for cls in (ranking.BprMf, ranking.Cml, ranking.NeuMf, ranking.Cdae,
                    sequential.Prme, sequential.Caser, sequential.AttRec):
            t.patch(cls, "score", "models.score")
        t.patch(rating.BiasedSvd, "predict", "models.score")
        t.patch(metrics, "evaluate_ranking", "metrics.protocol")
        t.patch(metrics, "rank_candidates", "metrics.rank", after=candidates)
        t.patch(metrics, "ranking_metrics", "metrics.reduce")

    @contextlib.contextmanager
    def segment(self, traced: bool):
        """Commands run inside are traced layer by layer when ``traced``."""
        if not traced:
            yield
            return
        self._install_layers()
        before = self.tracer.totals()
        steps_before = len(self.tracer.samples["models.gradient_step"])
        walls_before = sum(c.wall for c in self.commands)
        try:
            yield
        finally:
            self.tracer.restore(self._stage_mark)
            for key, value in self.tracer.totals().items():
                self.traced_totals[key] += value - before.get(key, 0.0)
            self.traced_steps += self.tracer.samples["models.gradient_step"][steps_before:]
            self.traced_wall += sum(c.wall for c in self.commands) - walls_before

    # -- commands ----------------------------------------------------------

    def command(self, kind: str, model: str, argv: list[str], user: str | None = None) -> Command:
        from gradrec import cli

        samples = self.tracer.samples
        before = {layer: len(v) for layer, v in samples.items() if layer.startswith("runner.")}
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([kind] + argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        stages = {layer: v[before.get(layer, 0):] for layer, v in samples.items()
                  if layer.startswith("runner.")}
        cmd = Command(kind, model, code, wall, out.getvalue(), stages, user)
        self.commands.append(cmd)
        if code != 0:
            self.fail(cmd, f"gradrec {kind} ({model}) exited {code}: {err.getvalue().strip()}")
        return cmd

    def fail(self, cmd: Command, why: str) -> None:
        self.failed.add(id(cmd))
        self.problems.append(why)

    def run_passes(self, one_pass) -> None:
        """Repeat ``one_pass(traced)`` at least twice, and again while the
        next pass should end within the run length. A traced run
        alternates untraced and traced passes, so the traced pass time
        minus the untraced one is the tracing overhead."""
        start = time.perf_counter()
        n = 0
        while n < 2 or (time.perf_counter() - start) * (n + 1) / n <= self.seconds:
            traced = self.trace and n % 2 == 1
            first = len(self.commands)
            one_pass(traced)
            self.passes[traced].append(sum(c.wall for c in self.commands[first:]))
            n += 1

    # -- checks ------------------------------------------------------------

    def check_repeats(self, kind: str) -> list[str]:
        """Every repeat of a command on one model prints the same report."""
        seen: dict[str, str] = {}
        for cmd in self.commands:
            if cmd.kind != kind or cmd.code != 0:
                continue
            h = harness.digest(cmd.out)
            first = seen.setdefault(cmd.model, h)
            if h != first:
                self.fail(cmd, f"{kind} report for {cmd.model} changed between repeats")
        return [f"{model}\t{h}" for model, h in sorted(seen.items())]

    def check_recommends(self, checkpoints: dict[str, Path]) -> None:
        """Each answer equals the brute-force oracle over the model's scores."""
        from gradrec import runner

        loaded = {}
        for cmd in self.commands:
            if cmd.kind != "recommend" or cmd.code != 0:
                continue
            if cmd.model not in loaded:
                cfg, model, bundle = runner.load_model(checkpoints[cmd.model])
                score = model.predict if bundle["task"] == "rating" else model.score
                loaded[cmd.model] = (score, bundle["table"])
            score, table = loaded[cmd.model]
            user = table.user_index[cmd.user]
            expected = harness.oracle_lines(score, table.n_items, table.item_ids, user,
                                            RECOMMEND_N)
            if not harness.recommend_matches(cmd.out, expected):
                self.fail(cmd, f"recommend {cmd.model} user {cmd.user} differs from the oracle")

    # -- metrics -----------------------------------------------------------

    def stage_samples(self, layer: str, kinds=None) -> list[float]:
        return [s for c in self.commands if kinds is None or c.kind in kinds
                for s in c.stages.get(layer, [])]


def pick_users(run: Run, cfg_path: Path, count: int) -> list[str]:
    """Seeded raw user ids that have training history (sequence models
    cannot score a user without one)."""
    from gradrec import config as cfgmod
    from gradrec import runner

    bundle = runner.prepare_data(cfgmod.load_config(cfg_path))
    train = bundle["train"]
    users = sorted({train.user_ids[x.user] for x in train.interactions})
    rng = np.random.default_rng([run.seed, 1])
    return [users[i] for i in rng.choice(len(users), size=count, replace=False)]


def write_configs(run: Run, data_path: Path) -> dict[str, Path]:
    paths = {}
    for name, entry in CONFIGS[run.workload].items():
        path = run.workdir / f"{name}.ini"
        path.write_text(config_text(data_path, entry), encoding="utf-8")
        paths[name] = path
    return paths


def train_workload(run: Run, data_path: Path) -> dict:
    configs = write_configs(run, data_path)
    ckpts = {name: run.workdir / f"{name}.drec" for name in configs}
    ranking = [name for name, entry in CONFIGS[run.workload].items() if entry[3] is not None]
    users = pick_users(run, configs[ranking[0]], 40)
    rng = np.random.default_rng([run.seed, 2])

    def one_pass(traced):
        for name, cfg in configs.items():
            with run.segment(traced):  # the per-layer run describes training only
                run.command("train", name, ["--config", str(cfg), "--out", str(ckpts[name])])
            for _ in range(RECOMMENDS_PER_MODEL[run.workload]):
                user = users[int(rng.integers(len(users)))]
                run.command("recommend", name, ["--ckpt", str(ckpts[name]), "--user", user,
                                                "--n", str(RECOMMEND_N)], user=user)

    run.run_passes(one_pass)
    for name, cfg in configs.items():
        run.command("evaluate", name, ["--ckpt", str(ckpts[name]), "--config", str(cfg)])
    digests = run.check_repeats("train")
    trains = [c for c in run.commands if c.kind == "train"]
    train_report = {c.model: c.out for c in trains if c.code == 0}
    for cmd in run.commands:
        if cmd.kind == "evaluate" and cmd.code == 0 and cmd.out != train_report.get(cmd.model):
            run.fail(cmd, f"evaluate {cmd.model} does not reproduce the train report")
    run.check_recommends(ckpts)

    walls = [sum(c.wall for c in trains[i:i + len(configs)])
             for i in range(0, len(trains), len(configs))]
    return {
        # recommend re-runs the same prepare_data, so it adds set-up samples
        "setup": run.stage_samples("runner.prepare_data", kinds=("train", "recommend")),
        "experiment": walls,
        "fit": (sum(run.stage_samples("runner.fit_model")),
                sum(run.stage_samples("runner.fit_examples"))),
        "eval": (sum(run.stage_samples("runner.evaluate_model")),
                 sum(run.stage_samples("runner.eval_users"))),
        "quality": dict(run.quality),
        "digests": digests,
    }


def serve_workload(run: Run, data_path: Path) -> dict:
    from gradrec import checkpoint as ckpt
    from gradrec import config as cfgmod
    from gradrec import runner

    configs = write_configs(run, data_path)

    def train_checkpoints(tag: str) -> dict[str, Path]:
        """Train every checkpoint outside the loop, as ``runner.run`` does
        without its evaluation."""
        out = {}
        for name, path in configs.items():
            cfg = cfgmod.load_config(path)
            bundle = runner.prepare_data(cfg)
            model = runner.build_model(cfg, train=bundle["train"])
            runner.fit_model(cfg, model, bundle)
            run.trainings += 1
            out[name] = run.workdir / f"{name}{tag}.drec"
            ckpt.save_checkpoint(out[name], cfg.model.name, cfg.text,
                                 runner.checkpoint_tensors(cfg, model))
        return out

    ckpts = train_checkpoints("")
    users = pick_users(run, configs["bprmf"], 40)
    rng = np.random.default_rng([run.seed, 2])
    names = list(configs)

    def one_pass(traced):
        with run.segment(traced):
            for name in EVALUATED:
                run.command("evaluate", name, ["--ckpt", str(ckpts[name]),
                                               "--config", str(configs[name])])
            for k in range(RECOMMENDS_PER_PASS):
                name = names[k % len(names)]
                user = users[int(rng.integers(len(users)))]
                run.command("recommend", name, ["--ckpt", str(ckpts[name]), "--user", user,
                                                "--n", str(RECOMMEND_N)], user=user)

    run.run_passes(one_pass)
    digests = run.check_repeats("evaluate")
    run.check_recommends(ckpts)
    # Training again after the loop must give the same bytes; it also
    # spreads the training that train_examples_per_s times over the run.
    for name, path in train_checkpoints(".again").items():
        if path.read_bytes() != ckpts[name].read_bytes():
            run.problems.append(f"retraining {name} gave a different checkpoint")
            run.unreproduced += 1

    per_pass = len(EVALUATED) + RECOMMENDS_PER_PASS
    walls = [sum(c.wall for c in run.commands[i:i + per_pass] if c.kind == "evaluate")
             for i in range(0, len(run.commands), per_pass)]
    return {
        "setup": run.stage_samples("runner.load_model"),
        "experiment": walls,
        "fit": (sum(run.tracer.samples["runner.fit_model"]),
                sum(run.tracer.samples["runner.fit_examples"])),
        "eval": (sum(run.stage_samples("runner.evaluate_model")),
                 sum(run.stage_samples("runner.eval_users"))),
        "quality": {m: run.quality[m] for m in EVALUATED},
        "digests": digests,
    }


def end_to_end(run: Run, parts: dict) -> tuple[dict, dict]:
    recommend = [1000.0 * c.wall for c in run.commands if c.kind == "recommend"]
    tail_p, tail = harness.tail_percentile(recommend)
    fit_s, examples = parts["fit"]
    eval_s, users = parts["eval"]
    values = {
        "setup_s": statistics.median(parts["setup"]),
        "experiment_s": statistics.median(parts["experiment"]),
        "train_examples_per_s": examples / fit_s,
        "eval_users_per_s": users / eval_s,
        "recommend_ms.p50": statistics.median(recommend),
        "recommend_ms.tail": tail,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    # deterministic for a seed, but its spread across seeds comes from the
    # generated corpus, so it is recorded and compared seed by seed
    quality = {f"rmse.{m}" if "rmse" in v else f"ndcg_at_10.{m}": v.get("rmse", v.get("ndcg@10"))
               for m, v in sorted(parts["quality"].items())}
    notes = {
        "setup_samples": len(parts["setup"]),
        "experiment_passes": len(parts["experiment"]),
        "recommend_samples": len(recommend),
        "recommend_tail_percentile": tail_p,
        "quality": quality,
        "report_sha256": parts["digests"],
    }
    return values, notes


def per_layer(run: Run) -> dict:
    tot = run.traced_totals

    def s(layer):
        return tot.get(f"{layer}:s", 0.0)

    def calls(layer):
        return tot.get(f"{layer}:calls", 0.0)

    def count(name):
        return tot.get(f"{name}:count", 0.0)

    steps = [1000.0 * x for x in run.traced_steps]
    step_tail = harness.tail_percentile(steps)[1] if len(steps) > harness.TAIL_BEYOND else 0.0
    backward_calls = calls("engine.backward")
    optim_calls = calls("engine.optim_step")
    rec = [c for c in run.commands if c.kind == "recommend"]
    rec_s = sum(sum(c.stages.get("runner.recommend", [])) for c in rec)
    rebuild_s = sum(sum(c.stages.get("runner.load_model", [])) for c in rec)
    attributed = sum(s(layer) for layer in NAMED_LAYERS)
    values = {
        "config.parse_s": s("config.parse"),
        "data.load_interactions_s": s("data.load_interactions"),
        "data.binarize_s": s("data.binarize"),
        "data.split_s": s("data.split"),
        "data.build_sequences_s": s("data.build_sequences"),
        "checkpoint.load_s": s("checkpoint.load"),
        "checkpoint.save_s": s("checkpoint.save"),
        "checkpoint.bytes": count("checkpoint.bytes") / max(count("checkpoint.files"), 1.0),
        "models.sampler_build_s": s("models.sampler_build"),
        "models.sampler_draw_s": s("models.sampler_draw"),
        "models.sampler_draw_calls": calls("models.sampler_draw"),
        "models.fit_loop_s": s("runner.fit_model"),
        "models.after_step_s": s("models.after_step"),
        "models.steps": float(len(steps)),
        "models.step_ms.p50": statistics.median(steps) if steps else 0.0,
        "models.step_ms.tail": step_tail,
        "models.score_s": s("models.score"),
        "models.score_calls": calls("models.score"),
        "engine.forward_s": s("models.gradient_step"),
        "engine.forward_ops": count("engine.forward_ops"),
        "engine.backward_s": s("engine.backward"),
        "engine.backward_calls": backward_calls,
        "engine.grad_bytes_per_step": count("engine.grad_bytes") / max(backward_calls, 1.0),
        "engine.grad_row_use": (count("engine.grad_rows_used")
                                / max(count("engine.grad_rows"), 1.0)),
        "engine.optim_step_s": s("engine.optim_step"),
        "engine.optim_bytes_per_step": count("engine.optim_bytes") / max(optim_calls, 1.0),
        "metrics.protocol_s": s("metrics.protocol"),
        "metrics.rank_s": s("metrics.rank"),
        "metrics.reduce_s": s("metrics.reduce"),
        "metrics.candidates_scored": count("metrics.candidates_scored"),
        "runner.recommend_rebuild_share": rebuild_s / rec_s if rec_s else 0.0,
        "traced_s": run.traced_wall,
        "unattributed_s": run.traced_wall - attributed - tot.get("hooks:s", 0.0),
        "trace.overhead_s": (statistics.median(run.passes[True])
                             - statistics.median(run.passes[False])),
    }
    return values


WORKLOADS = {"train-mf": train_workload, "train-seq": train_workload,
             "serve-full": serve_workload}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[Run, dict, dict]:
    """Generate inputs (untimed), run the closed loop, and return the run
    with its metrics and the notes recorded beside them."""
    data_path = corpus_file(workload, seed)
    run = Run(workload, seed, seconds, trace, workdir)
    try:
        parts = WORKLOADS[workload](run, data_path)
    finally:
        run.tracer.restore()
    values, notes = end_to_end(run, parts)
    if trace:
        values = per_layer(run)
    for why in run.problems:
        print(f"check failed: {why}", file=sys.stderr)
    return run, values, notes
