"""``stream``: continuous ingest with live queries beside it.

``StreamingCorpusService`` (thread backend, UCB allocation,
``max_lag_frames=3``, ``replan_every=24``) ingests the three-sequence
corpus (240/240/160 frames, 12 initial frames each): 604 frames arrive
as a stream.  After every pump of 4 arrival events a 4-query live batch
runs.  The batches rotate, one query a batch, through the paper's 130
queries scoped in turn to each sequence and to the whole corpus (as
``benchmarks/bench_streaming.py`` does), so every query runs live and
the read path meets cold filters as well as cached ones.  This
exercises incremental ``extend``, ``SpatialTileIndex.updated``, tail
cache invalidation and re-plans, so a read-path gain that taxes writes
shows up here.  A pass ends with ``quiesce``.  The window runs whole
passes back to back until its time is up (the last pass finishes past
it), each pass with its own arrival jitter and rotation start drawn
from the seed.

Each pass is one chunk of the window: its ``frames_per_s`` counts the
write path only (service start, pumps and the drain), its ``ops_per_s``
the live batches, and its latencies are per live batch; the run
reports the median over passes of each figure.
Every pass bills ``model_invocations`` deep-model calls; the
final plan covers far fewer frames.  Both are reported, with their
ratio, so a change that closes this gap can show it.
"""

from __future__ import annotations

import itertools

import numpy as np

from perfbench.base import (
    BUDGET,
    MODEL_SEED,
    REFERENCE_SEED,
    Workload,
    cache_metrics,
    op_span,
    ratio,
)
from perfbench.common import Window, answer_digest, median, now
from perfbench.corpora import corpus_specs, scoped_texts, shard_quality

MAX_LAG = 3
REPLAN_EVERY = 24
INITIAL_FRAMES = 12
EVENTS_PER_PUMP = 4
#: Queries in each live batch.
LIVE_BATCH = 4
#: Per-sequence arrival rates (frames per virtual second, frames per event).
SCHEDULE = {
    "static-drive": (20.0, 1),
    "volatile-drive": (30.0, 1),
    "sparse-urban": (8.0, 2),
}
JITTER = 0.25


class StreamWorkload(Workload):
    name = "stream"
    primary = "frames"

    def __init__(self, seed, workdir) -> None:
        super().__init__(seed, workdir)
        self._rng = np.random.default_rng([self.seed, 41])
        self._pass_invocations: list[int] = []
        self._planned_frames: list[int] = []
        self._drained: list[list[bytes]] = []
        self._staleness_max = 0
        self._cache: dict[str, int] = {}
        self._ops = itertools.count(1)
        self._reference = None

    def setup(self) -> None:
        from repro.core import MASTConfig
        from repro.models import pv_rcnn
        from repro.query.workload import generate_workload

        self.model = pv_rcnn(seed=MODEL_SEED)
        self.config = MASTConfig(budget_fraction=BUDGET, seed=REFERENCE_SEED)
        self.sequences = [spec.build() for spec in corpus_specs(240, 160)]
        # The paper's 130 queries, scoped in turn to each sequence and
        # the whole corpus: the live batches rotate through them, and the
        # drained answers to all of them are checked.
        workload = generate_workload(rng=REFERENCE_SEED)
        names = [sequence.name for sequence in self.sequences]
        self.texts = scoped_texts(names, workload.all_queries())

    def _source(self, seed: int):
        from repro.streaming import ArrivalSchedule, ScheduledFrameSource

        return ScheduledFrameSource(
            self.sequences,
            initial_frames=INITIAL_FRAMES,
            schedule={
                name: ArrivalSchedule(rate=rate, batch_frames=batch, jitter=JITTER)
                for name, (rate, batch) in SCHEDULE.items()
            },
            seed=seed,
        )

    def window(self, seconds, tracer) -> Window:
        """Whole passes, back to back, until ``seconds`` have gone by."""
        window = Window()
        start = now()
        while not window.frame_rates or now() - start < seconds:
            self._stream_pass(window, tracer)
        return window

    def _stream_pass(self, window: Window, tracer) -> None:
        """Stream one source to the end and drain it; one chunk of the window."""
        from repro.streaming import StreamingCorpusService
        from repro.utils.timing import STAGE_MODEL

        source = self._source(int(self._rng.integers(1, 2**31)))
        offset = int(self._rng.integers(len(self.texts)))
        write_s = read_s = 0.0
        ops = 0
        latencies: list[float] = []
        began = now()
        with op_span(tracer, next(self._ops)):
            service = StreamingCorpusService(
                source, self.model, self.config, policy="ucb",
                max_lag_frames=MAX_LAG, replan_every=REPLAN_EVERY,
            )
        write_s += now() - began
        try:
            while True:
                began = now()
                with op_span(tracer, next(self._ops)):
                    pumped = service.pump(max_events=EVENTS_PER_PUMP)
                write_s += now() - began
                if pumped == 0:
                    break
                batch = [
                    self.texts[(offset + k) % len(self.texts)] for k in range(LIVE_BATCH)
                ]
                offset += 1  # rotate, so every query runs live
                window.attempted += len(batch)
                try:
                    with op_span(tracer, next(self._ops)):
                        began = now()
                        answers = service.execute_batch(batch)
                        elapsed = now() - began
                except Exception as error:
                    window.fail(len(batch), f"live batch failed: {error!r}")
                    continue
                read_s += elapsed
                latencies.append(elapsed)
                ops += len(batch)
                for text, answer in zip(batch, answers):
                    self._staleness_max = max(self._staleness_max, answer.max_staleness)
                    if answer.max_staleness > MAX_LAG:
                        window.fail(1, f"{text}: staleness {answer.max_staleness} > {MAX_LAG}")
            began = now()
            with op_span(tracer, next(self._ops)):
                report = service.quiesce()
            write_s += now() - began
            if any(lag != 0 for lag in report["staleness"].values()):
                window.fail(1, f"staleness after quiesce: {report['staleness']}")
            initial = INITIAL_FRAMES * len(self.sequences)
            frames = sum(service.watermarks().values()) - initial
            window.chunk(ops, read_s, frames, write_s, latencies)
            ledger = service.cost_ledger()
            self._pass_invocations.append(ledger.invocations(STAGE_MODEL))
            self._planned_frames.append(service.allocation.total_frames)
            self.sim_model_s += ledger.total(STAGE_MODEL)
            self._drained.append(
                [answer_digest(service.execute(text).result) for text in self.texts]
            )
        finally:
            for key, value in service.cache_stats().as_dict().items():
                self._cache[f"cache.{key}"] = self._cache.get(f"cache.{key}", 0) + value
            service.close()

    def _batch_reference(self):
        """A batch ``CorpusPipeline`` fit on the final corpus, built once."""
        from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog

        if self._reference is None:
            catalog = SequenceCatalog()
            for sequence in self.sequences:
                catalog.register_sequence(sequence, dataset="stream")
            corpus = CorpusPipeline(catalog, self.config, policy="ucb").fit(self.model)
            self._reference = corpus, CorpusQueryService(corpus)
        return self._reference

    def verify(self, window) -> None:
        """Post-drain answers must equal a batch service fit on the final corpus."""
        if not self._drained:
            window.fail(1, "no stream pass completed")
            return
        _, service = self._batch_reference()
        want = [answer_digest(service.execute(text)) for text in self.texts]
        for drained in self._drained:
            window.attempted += len(drained)
            for text, got, expected in zip(self.texts, drained, want):
                if got != expected:
                    window.fail(1, f"post-drain answer differs from batch for {text}")
        self._drained.clear()

    def quality(self, window) -> tuple[float, float]:
        """Scored on the batch fit, which :meth:`verify` pins equal to the drained stream."""
        corpus, _ = self._batch_reference()
        f1, error = shard_quality(
            {sequence.name: sequence for sequence in self.sequences},
            lambda name: corpus.shard(name).query,
            self.model,
        )
        return float(np.mean(f1)), float(np.mean(error))

    def close(self) -> None:
        if self._reference is not None:
            corpus, service = self._reference
            service.close()
            corpus.close()
            self._reference = None

    def model_invocations(self) -> float:
        return median(self._pass_invocations)

    def snapshot(self) -> dict[str, float]:
        return {"passes": len(self._pass_invocations), **self._cache}

    def layer_metrics(self, before, after) -> dict[str, float]:
        first = int(before["passes"])
        invocations = self._pass_invocations[first:] or self._pass_invocations
        planned = self._planned_frames[first:] or self._planned_frames
        return {
            **cache_metrics(before, after),
            "streaming.staleness_max": self._staleness_max,
            "streaming.model_invocations": median(invocations),
            "corpus.allocation.total_frames": median(planned),
            "streaming.invocations_per_planned_frame": ratio(
                median(invocations), median(planned)
            ),
        }
