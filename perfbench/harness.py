"""Shared machinery of the benchmark: workspace, timing loop, statistics,
the workload record and the final result line.

Every workload module exposes ``run(config) -> Outcome``; ``run.py``
turns the outcome into the JSON result line, naming metrics and units
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch stores and server logs; removed when the run ends.
WORK = ROOT / ".perfbench_work"
#: Span files of traced runs; kept for inspection.
OUT = ROOT / ".perfbench_out"

#: Set-ups per run; ``setup_s`` is their median.  One part of the timed
#: phase follows each set-up.
SETUP_REPEATS = 3
#: A tail percentile is only meaningful with this many samples beyond it.
MIN_TAIL = 10


@dataclass
class Config:
    seed: int
    seconds: float
    trace: bool
    scale: float
    workdir: Path


@dataclass
class Outcome:
    """What one run measured.  ``metrics`` maps catalogue names to
    values; ``record`` holds the workload record lines printed before
    the result."""

    attempted: int
    failed: int
    wrong: int
    metrics: dict = field(default_factory=dict)
    record: list = field(default_factory=list)


@contextmanager
def workspace(workload: str) -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed on exit."""
    path = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


def measure_between_setups(build: Callable[[], object],
                           release: Callable[[object], None],
                           measure: Callable[[object, float], object],
                           seconds: float, parts: int = SETUP_REPEATS
                           ) -> tuple[object, float, list]:
    """Set up ``parts`` times and run one part of the timed phase,
    ``measure(state, seconds / parts)``, after each set-up.

    Returns (last state, median set-up seconds, the parts' results).
    Every state but the last is released.  Interleaving spreads the
    timed rounds over the set-ups' wall time as well, so one slow
    phase of the host is less likely to cover them all (README.md,
    "Measuring on a shared host").
    """
    durations, results, state = [], [], None
    for _ in range(parts):
        if state is not None:
            release(state)
        start = time.perf_counter()
        state = build()
        durations.append(time.perf_counter() - start)
        results.append(measure(state, seconds / parts))
    return state, statistics.median(durations), results


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_summary(label: str, seconds: Sequence[float]
                    ) -> tuple[float, float, str]:
    """(p50 ms, p90 ms, record line) of a latency sample.

    The record line states the sample count and the samples beyond
    p90, and flags a tail too thin to trust.
    """
    p50 = percentile(seconds, 0.50) * 1000.0
    p90 = percentile(seconds, 0.90) * 1000.0
    beyond = sum(1 for value in seconds if value * 1000.0 > p90)
    note = "" if beyond >= MIN_TAIL else \
        f"  (p90 unresolved: fewer than {MIN_TAIL} samples beyond it)"
    return p50, p90, (f"{label}: n={len(seconds)} p50={p50:.3f}ms "
                      f"p90={p90:.3f}ms ({beyond} beyond p90){note}")


def fingerprint(items: Sequence) -> str:
    """A short stable digest of an operation list."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    status = Path(f"/proc/{pid or os.getpid()}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def histogram_line(label: str, counts: dict) -> str:
    return f"{label}: " + ", ".join(
        f"{key}:{counts[key]}" for key in sorted(counts))


def share(part: int, whole: int) -> str:
    return f"{part}/{whole} ({100.0 * part / whole:.1f}%)" if whole \
        else f"{part}/0"


@dataclass
class Round:
    """One pass over a workload's operation list."""

    times: list      # seconds per op reached, in op order
    outputs: list    # what each of those ops returned
    elapsed: float   # wall seconds of the pass
    #: False when a hung program cut the pass short (served-topk).
    complete: bool = True
    #: Ops reached that did not complete (served-topk: no 200 reply).
    failed: int = 0


class Rounds(list):
    """The rounds of a timed phase over one operation list.

    The host's speed swings by up to 1.6x for seconds to tens of seconds
    at a time (README.md, "Measuring on a shared host").  So every
    statistic is taken per complete round and reported as the median
    over the run's rounds, which a slow phase of the host covering a
    minority of the rounds does not move: throughput is a round's
    completed ops per wall second, and latency percentiles are a
    round's own, so the delays the program causes itself (collection
    pauses, scrape ticks, contention between workers) stay in them.
    Rounds are short, so a run has many.  Only when no round completed
    are the cut rounds used.
    """

    @property
    def ops(self) -> int:
        return sum(len(each.times) for each in self)

    def _measured(self) -> list:
        return [each for each in self if each.complete] or \
            [each for each in self if each.times]

    def throughput(self) -> float:
        """Median over rounds of completed ops per wall second."""
        return statistics.median(
            (len(each.times) - each.failed) / each.elapsed
            for each in self._measured())

    def latency(self, label: str,
                keep: Callable[[int], bool] = lambda number: True
                ) -> tuple[float, float, str]:
        """(p50 ms, p90 ms, record line): each complete round's own
        percentiles of its kept ops, median over the rounds.  A round's
        percentiles keep the delays the program causes inside it; the
        median over rounds sheds a slow phase of the host that covers
        a minority of them."""
        samples = [[seconds for number, seconds in enumerate(each.times)
                    if keep(number)] for each in self._measured()]
        p50 = statistics.median(percentile(each, 0.50)
                                for each in samples) * 1000.0
        p90s = [percentile(each, 0.90) for each in samples]
        p90 = statistics.median(p90s) * 1000.0
        beyond = sum(1 for each, bound in zip(samples, p90s)
                     for seconds in each if seconds > bound)
        return p50, p90, (
            f"{label}: median over {len(samples)} rounds of each round's "
            f"percentiles, {len(samples[0])} samples a round, {beyond} "
            f"beyond their round's p90 in all: "
            f"p50={p50:.3f}ms p90={p90:.3f}ms")

    def pooled_latency(self, label: str, keep: Callable[[int], bool]
                       ) -> tuple[float, float, str]:
        """(p50 ms, p90 ms, record line) over the kept ops of every
        complete round, pooled (for ops too few per round to have a
        percentile of their own)."""
        return latency_summary(
            f"{label} ({len(self._measured())} rounds pooled)",
            [seconds for each in self._measured()
             for number, seconds in enumerate(each.times) if keep(number)])

    def throughput_line(self) -> str:
        """The record line of every round's throughput, in run order."""
        return "round throughputs (ops/s): " + " ".join(
            f"{(len(each.times) - each.failed) / each.elapsed:.2f}"
            + ("" if each.complete else "(cut)") for each in self)

    @classmethod
    def merged(cls, parts: Sequence["Rounds"]) -> "Rounds":
        """One phase out of parts run over identical inputs."""
        return cls(each for part in parts for each in part)


def run_rounds(ops: Sequence, execute: Callable, seconds: float,
               recorder=None, each_round: Callable = nullcontext
               ) -> Rounds:
    """Run ``ops`` in whole rounds for about ``seconds``.

    Every round completes.  Another starts only while the deadline is
    more than half the last round away, so the phase ends within half a
    round of ``seconds``.  ``each_round()`` is a context manager entered
    around each round, outside its timing (store-churn restores its
    store there).
    """
    rounds = Rounds()
    deadline = time.perf_counter() + seconds
    while not rounds or \
            time.perf_counter() + rounds[-1].elapsed / 2 < deadline:
        with each_round():
            times, outputs = [], []
            start = time.perf_counter()
            for number, op in enumerate(ops):
                began = time.perf_counter()
                if recorder is None:
                    output = execute(op)
                else:
                    with recorder.operation(number + 1):
                        output = execute(op)
                times.append(time.perf_counter() - began)
                outputs.append(output)
            rounds.append(Round(times, outputs,
                                time.perf_counter() - start))
    return rounds


class WarningCounter(logging.Handler):
    """Counts WARNING-or-worse records of the program's loggers."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


@contextmanager
def counting_warnings() -> Iterator[WarningCounter]:
    logger = logging.getLogger("repro")
    counter = WarningCounter()
    logger.addHandler(counter)
    try:
        yield counter
    finally:
        logger.removeHandler(counter)
