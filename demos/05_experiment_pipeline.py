"""End-to-end experiment: write a dataset and a config file, run the
pipeline, inspect the report, round-trip the checkpoint, and serve
recommendations -- the same path the `gradrec` CLI drives."""

import tempfile
from pathlib import Path

from gradrec import checkpoint, cli, config, data, runner, synthetic

workdir = Path(tempfile.mkdtemp(prefix="gradrec-demo-"))
print("working directory:", workdir)

# ---- dataset + config ------------------------------------------------------

data_path = workdir / "interactions.txt"
data.write_uirt(data_path, synthetic.markov_chains(n_users=30, n_items=12,
                                                   history=7, seed=3))

config_path = workdir / "bprmf.ini"
config_path.write_text(f"""\
[data]
path = {data_path}
format = uirt
split = loo
seed = 42
binarize_threshold = 1.0

[model]
name = bprmf
k = 8

[train]
optimizer = adam
lr = 0.05
l2 = 0.001
epochs = 15
batch_size = 64
seed = 7

[eval]
cutoffs = 5,10
protocol = full
""")

# ---- run through the library ------------------------------------------------

cfg = config.load_config(config_path)
ckpt_path = workdir / "bprmf.drec"
report, model, trace = runner.run(cfg, checkpoint_path=ckpt_path,
                                  report_path=workdir / "run.report")
print("\nreport:")
print(report.to_text())
print(f"loss trace: {trace[0]:.4f} -> {trace[-1]:.4f} over {len(trace)} epochs")

# ---- checkpoint round-trip ---------------------------------------------------

name, echo, tensors = checkpoint.load_checkpoint(ckpt_path)
print(f"checkpoint holds model {name!r} with tensors: {sorted(model.params)}")
print("and, for serving without the data file, the train table's columns and the data's "
      f"SHA-256: {sorted(set(tensors) - set(model.params))}")
_, restored, bundle = runner.load_model(ckpt_path)
probe = [(u, i) for u in (0, 3, 5) for i in (0, 4, 9)]
identical = all(restored.score(u, i) == model.score(u, i) for u, i in probe)
print("restored scores identical to trained model:", identical)

# ---- determinism: the same config gives byte-identical reports ---------------

runner.run(cfg, report_path=workdir / "again.report")
same = (workdir / "run.report").read_bytes() == (workdir / "again.report").read_bytes()
print("re-run report bytes identical:", same)

# ---- the CLI surface ----------------------------------------------------------

print("\ntop-4 recommendations for user u5 via the CLI:")
cli.main(["recommend", "--ckpt", str(ckpt_path), "--user", "u5", "--n", "4"])

print("\nre-evaluation at different cutoffs via the CLI:")
eval_cfg = workdir / "eval.ini"
eval_cfg.write_text(config_path.read_text().replace("cutoffs = 5,10", "cutoffs = 3"))
cli.main(["evaluate", "--ckpt", str(ckpt_path), "--config", str(eval_cfg)])
