"""Shared pieces of the benchmark: clock, statistics, answer digests, quality.

Every wall-clock read of the benchmark goes through :func:`now`, so the
one suppression of the project's no-wall-clock lint rule sits here.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import resource
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Fewest samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10
#: The tail percentile reported once enough samples exist.
TAIL_TARGET = 0.99


def now() -> float:
    """Monotonic wall-clock seconds."""
    return time.perf_counter()  # repro: noqa[RPR002] the benchmark measures wall time by definition


@dataclass
class Window:
    """What one workload's timed window did.

    The window is cut into chunks (a round, a session, a stream pass or
    a run of waves, per workload).  ``op_rates`` / ``frame_rates`` hold
    each chunk's ops and frames per second, and ``latency_chunks`` each
    chunk's latency samples.  Every reported rate and latency is the
    median over chunks of that chunk's figure, so a host stall that
    covers fewer than half the chunks moves it little.
    """

    ops: int = 0
    frames: int = 0
    op_rates: list[float] = field(default_factory=list)
    frame_rates: list[float] = field(default_factory=list)
    latency_chunks: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def chunk(
        self, ops: int, op_seconds: float, frames: int, frame_seconds: float, latencies=()
    ) -> None:
        """Close one chunk of the window."""
        self.ops += ops
        self.frames += frames
        if op_seconds > 0:
            self.op_rates.append(ops / op_seconds)
        if frame_seconds > 0:
            self.frame_rates.append(frames / frame_seconds)
        if latencies:
            self.latency_chunks.append(list(latencies))

    @property
    def latencies(self) -> list[float]:
        """Every latency sample of the window."""
        return [sample for chunk in self.latency_chunks for sample in chunk]

    def latency_summary(self) -> tuple[float, float, float, int]:
        """``(p50, tail, tail percentile, samples)``: medians over the chunks.

        Each chunk gives its median and its :func:`tail_percentile`; the
        percentile reported is the median of the chunks' percentiles.
        """
        tails = [tail_percentile(chunk) for chunk in self.latency_chunks]
        return (
            median(median(chunk) for chunk in self.latency_chunks),
            median(tail for tail, _, _ in tails),
            median(percentile for _, percentile, _ in tails),
            sum(n for _, _, n in tails),
        )

    def fail(self, count: int, reason: str) -> None:
        """Record ``count`` failed ops; keep the first few reasons."""
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)


def median(values) -> float:
    """Median of a non-empty sequence (midpoint of the two middle values)."""
    return float(np.median(np.asarray(list(values), dtype=float)))


def tail_percentile(samples) -> tuple[float, float, int]:
    """The highest percentile, up to p99, with enough samples beyond it.

    Returns ``(value, percentile, n)``.  A percentile with
    ``TAIL_MIN_BEYOND`` samples beyond it covers at most the lowest
    ``n - TAIL_MIN_BEYOND`` samples, so the rank is capped there; from
    1,000 samples on the result is the p99.  When even the median has
    fewer samples beyond it (fewer than ``2 * TAIL_MIN_BEYOND + 1``
    samples) no tail can be told apart and the maximum is returned, as
    percentile 100.  Nearest rank, so the value is one that occurred.
    """
    values = np.sort(np.asarray(list(samples), dtype=float))
    n = int(values.size)
    if n == 0:
        raise ValueError("tail_percentile needs at least one sample")
    rank = min(math.ceil(TAIL_TARGET * n), n - TAIL_MIN_BEYOND)
    if rank < math.ceil(0.5 * n):
        return float(values[-1]), 100.0, n
    return float(values[rank - 1]), 100.0 * rank / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live child processes, in MiB.

    A child's peak is its ``VmHWM``; children that have already exited
    are not counted, so read this while the workload's workers run.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def answer_digest(result) -> bytes:
    """A 16-byte digest of an answer's bits.

    Covers retrieval frame ids and aggregate values, per sequence for
    corpus answers.  Per-frame diagnostic counts are left out: the
    process backend drops them from scoped answers by design.
    """
    digest = hashlib.blake2b(digest_size=16)
    _feed(digest, result)
    return digest.digest()


def _feed(digest, result) -> None:
    if hasattr(result, "value"):
        value = float(result.value)
        digest.update(struct.pack("<d", value if value == value else math.nan))
    by_sequence = getattr(result, "by_sequence", None)
    if by_sequence is not None:
        for name in sorted(by_sequence):
            digest.update(name.encode())
            _feed(digest, by_sequence[name])
    elif hasattr(result, "frame_ids"):
        digest.update(np.ascontiguousarray(result.frame_ids, dtype=np.int64).tobytes())


def quality(answer, truth) -> tuple[list[float], list[float]]:
    """Per-query retrieval F1 and aggregate error of one sequence's answers.

    ``answer`` maps a query to the answer under test; ``truth`` is an
    :class:`~repro.evalx.runner.OracleTruth` on the same sequence.
    Error is ``1 - accuracy`` in the paper's relative-accuracy sense.
    """
    from repro.evalx.metrics import aggregate_accuracy, f1_score

    f1 = [
        f1_score(answer(query).id_set(), result.id_set())
        for query, result in zip(truth.retrieval_queries, truth.retrieval_results)
    ]
    error = [
        1.0 - aggregate_accuracy(answer(query).value, result.value)
        for query, result in zip(truth.aggregate_queries, truth.aggregate_results)
    ]
    return f1, error
