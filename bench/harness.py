"""Measurement helpers for the gradrec benchmark: spans with self time,
the tail-percentile rule, the recommend oracle, and the machine record.

Nothing here imports gradrec, so the helpers are testable on their own.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
import time
from collections import defaultdict
from pathlib import Path

TAIL_BEYOND = 10  # samples a tail percentile must have above it


def tail_percentile(samples) -> tuple[int, float]:
    """The highest nearest-rank percentile with at least ten samples above it.

    Returns ``(percentile, value)``. With n sorted samples the value is the
    one at rank n - 10, so exactly ten samples lie beyond it; the percentile
    is ``floor(100 * (n - 10) / n)``. Fewer than 11 samples have no tail.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs at least {TAIL_BEYOND + 1} samples, got {n}")
    rank = n - TAIL_BEYOND
    return (100 * rank) // n, ordered[rank - 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tracer:
    """Spans around patched callables, with per-layer self time.

    A span's self time is its duration minus the time of the spans that
    ran inside it, so nested wrapped calls are attributed once. A call
    that re-enters the layer it is already in (``draw_many`` calling
    ``draw``) runs inside the outer span: no second span, no extra call.
    ``keep`` layers also record every duration for percentiles. Patches
    are undone by :meth:`restore`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.hooks_s = 0.0
        self._stack: list[list] = []  # [layer, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, keep: bool = False, after=None):
        """``fn`` inside a span of ``layer``; ``after(args, kwargs, result)``
        runs outside the span, so its cost is not charged to the layer."""
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                # already inside this layer's span: its time is counted there,
                # and a second span would only add tracing cost to the layer
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                self.self_s[layer] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                self.calls[layer] += 1
                if keep:
                    self.samples[layer].append(elapsed)
            if after is not None:
                # the hook's cost is tracing overhead: keep it out of every layer
                start = clock()
                after(args, kwargs, result)
                spent = clock() - start
                self.hooks_s += spent
                if stack:
                    stack[-1][2] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, layer: str, keep: bool = False, after=None) -> None:
        if isinstance(owner, type) and attr in owner.__dict__:
            original = owner.__dict__[attr]  # the plain function, not a bound method
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, keep=keep, after=after))

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def mark(self) -> int:
        return len(self._patches)

    def restore(self, mark: int = 0) -> None:
        """Undo the patches made since ``mark`` (all of them by default)."""
        while len(self._patches) > mark:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, float]:
        """Self seconds, calls and counts in one flat map, for deltas."""
        out = {f"{layer}:s": value for layer, value in self.self_s.items()}
        out.update({f"{layer}:calls": value for layer, value in self.calls.items()})
        out.update({f"{name}:count": value for name, value in self.counts.items()})
        out["hooks:s"] = self.hooks_s
        return out


def oracle_lines(score, n_items: int, item_ids: list[str], user: int, n: int) -> list[str]:
    """Brute-force top-n: score every item, sort by (-score, raw item id),
    and format the lines as ``gradrec recommend`` prints them."""
    scored = sorted((-float(score(user, item)), item_ids[item]) for item in range(n_items))
    return [f"{raw}\t{-neg:.6f}" for neg, raw in scored[:n]]


def recommend_matches(answer: str, expected: list[str]) -> bool:
    return answer.splitlines() == expected


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | str:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(root: Path, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "workload_seed": seed,
        "argv": sys.argv[1:],
    }

