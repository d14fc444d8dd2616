"""Run one gradrec benchmark workload and print its metrics.

    python3 bench/run.py --workload train-mf --seed 1 --seconds 30 --trace 0

Run it from the root of a gradrec checkout; gradrec is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object holding every end-to-end metric; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead. The lines before it print each
metric with its unit and direction, then a JSON record of the machine,
the sample counts, per-model quality and the report digests. Workload and
metric choices are explained in bench/README.md; metric names, units and
directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-mf", "train-seq", "serve-full")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gradrec" / "__init__.py").is_file():
        print(f"error: no gradrec sources under {ROOT / 'src'}; run from a gradrec checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # one single-threaded process per workload: fix BLAS threads before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import workloads

    record = harness.machine_record(ROOT, args.seed)
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=workloads.WORK))
    try:
        run, values, notes = workloads.run_workload(args.workload, args.seed, args.seconds,
                                                    bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"error: computed metrics {sorted(values)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    attempted, failed = run.attempted, run.failures
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for m in declared:
        print(f"  {m['name']:32s} {values[m['name']]:16.6f} {m['unit']}  "
              f"({m['better']} is better)")
    print(f"  {'error_rate':32s} {failed / attempted:16.6f} failed/attempted  "
          f"({failed} of {attempted} operations; lower is better)")
    for name, value in notes["quality"].items():
        direction = "lower" if name.startswith("rmse") else "higher"
        print(f"  {name:32s} {value:16.6f} -  ({direction} is better)")
    for line in notes["report_sha256"]:
        print(f"  report sha256 {line}")
    print(json.dumps({"record": dict(record, workload=args.workload, seconds=args.seconds,
                                     trace=args.trace, **notes)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
