"""Command-line entry point.

Subcommands: split, train, evaluate, recommend. Exit codes: 0 success,
1 configuration/usage error, 2 runtime error (bad data, a file that
cannot be read or written, corrupt checkpoint, divergence).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import sys
from functools import cache

from gradrec import config as cfgmod
from gradrec import data as datamod
from gradrec import runner
from gradrec.errors import ConfigError, GradrecError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@cache  # parse_args keeps no state in the parser
def build_parser() -> _Parser:
    parser = _Parser(prog="gradrec",
                     description="Config-driven recommender experiments")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_split = sub.add_parser("split", help="materialize the train/test split as files")
    p_split.add_argument("--config", required=True)
    p_split.add_argument("--train-out", required=True)
    p_split.add_argument("--test-out", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.add_argument("--report", help="also write the metric report here")

    p_eval = sub.add_parser("evaluate", help="re-evaluate a checkpoint")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--report", help="write the metric report here")

    p_rec = sub.add_parser("recommend", help="print top-n items for a user")
    p_rec.add_argument("--ckpt", required=True)
    p_rec.add_argument("--user", required=True, help="raw user id as in the data file")
    p_rec.add_argument("--n", required=True, type=int)
    return parser


def cmd_split(args) -> int:
    cfg = cfgmod.load_config(args.config)
    bundle = runner.prepare_data(cfg)
    if cfg.data.format == "libfm":
        datamod.write_libfm(args.train_out, bundle["train_rows"])
        datamod.write_libfm(args.test_out, bundle["test_rows"])
    else:
        datamod.write_uirt(args.train_out, bundle["train"])
        datamod.write_uirt(args.test_out, bundle["test"])
    print(f"wrote {args.train_out} and {args.test_out}")
    return 0


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config)
    report, _, _ = runner.run(cfg, checkpoint_path=args.out, report_path=args.report)
    sys.stdout.write(report.to_text())
    return 0


def cmd_evaluate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    eval_cfg, model, bundle = runner.load_model(args.ckpt, override_cfg=cfg)
    report = runner.evaluate_model(eval_cfg, model, bundle)
    if args.report:
        runner.write_report(args.report, report)
    sys.stdout.write(report.to_text())
    return 0


def cmd_recommend(args) -> int:
    for raw_id, score in runner.recommend(args.ckpt, args.user, args.n):
        print(f"{raw_id}\t{score:.6f}")
    return 0


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, glibc's malloc.h
MMAP_THRESHOLD, TRIM_THRESHOLD = 64 << 20, 256 << 20  # bytes


@cache
def pin_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds, once per process. Left dynamic,
    they follow the largest mapped block freed so far: after a training
    step's ~1 MB arrays glibc keeps about 2 MB free at the heap top, returns
    the rest to the kernel, and the next step page-faults it in again. A C
    library without ``mallopt`` (musl, macOS) or a process without a handle
    to itself (Windows) keeps its defaults."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


COMMANDS = {"split": cmd_split, "train": cmd_train, "evaluate": cmd_evaluate,
            "recommend": cmd_recommend}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    pin_malloc_thresholds()
    collecting = gc.isenabled()
    gc.disable()  # a command's few cycles are collected after it, not mid-command
    try:
        return COMMANDS[args.command](args)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename}", file=sys.stderr)
        return 2
    except OSError as err:  # os.replace names the destination second; a broken pipe names none
        where = err.filename2 or err.filename
        print(f"error: {where}: {err.strerror}" if where else f"error: {err}", file=sys.stderr)
        return 2
    except GradrecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
