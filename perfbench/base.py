"""The interface every workload implements, and helpers they share."""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path

from perfbench.common import Window

#: Detector seed: the same deep model in every workload.
MODEL_SEED = 5
#: Sampler seed of every fixed pre-fit and of the quality evaluation.
REFERENCE_SEED = 1
#: The paper's default sampling budget.
BUDGET = 0.10


class Workload:
    """One named workload.

    The runner calls :meth:`setup` (several times, with :meth:`teardown`
    in between, to take the median set-up time), then :meth:`window`
    once per timed window, :meth:`verify` and :meth:`quality` outside
    any window, and :meth:`close` last.
    """

    name = ""
    #: Which rate the tracing overhead is measured on: ``"ops"`` or ``"frames"``.
    primary = "ops"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        #: Simulated deep-model seconds billed inside timed windows.
        self.sim_model_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def window(self, seconds: float, tracer) -> Window:
        raise NotImplementedError

    def verify(self, window: Window) -> None:
        """Check the window's outputs; record failures on ``window``."""

    def quality(self, window: Window) -> tuple[float, float]:
        """``(retrieval_f1, agg_error)`` against the Oracle."""
        raise NotImplementedError

    def model_invocations(self) -> float:
        raise NotImplementedError

    def snapshot(self) -> dict[str, float]:
        """Workload-level counters, read before and after a traced window."""
        return {}

    def layer_metrics(self, before: dict, after: dict) -> dict[str, float]:
        """Per-layer metrics the workload measures itself."""
        return {}

    def close(self) -> None:
        self.teardown()


def op_span(tracer, op: int):
    """A root span for one benchmark op, or nothing when untraced."""
    return tracer.span("bench.op", op=op) if tracer is not None else nullcontext()


def delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def cache_metrics(before: dict, after: dict) -> dict[str, float]:
    """``serving.cache.*`` deltas from ``cache.<counter>`` snapshot keys."""
    counts = {
        key: delta(before, after, f"cache.{key}")
        for key in ("hits", "misses", "partial_hits", "invalidations")
    }
    lookups = counts["hits"] + counts["misses"] + counts["partial_hits"]
    metrics = {f"serving.cache.{key}": value for key, value in counts.items()}
    metrics["serving.cache.lookups"] = lookups
    metrics["serving.cache.hit_ratio"] = ratio(counts["hits"], lookups)
    return metrics
