"""``serve``: two closed-loop clients against the process-sharded tier.

Each client submits 32-query waves, zipf-skewed over a 24-query pool
of scoped and fan-out queries, to ``CorpusQueryService(backend="process",
workers=2)`` on the three-sequence corpus (360/360/240 frames).  The
pool fits in every cache, so admission, coalescing, the worker pipes
and cache hits dominate and the count-series layer is bypassed.  The
seed drives the clients' wave draws.  ``ops_per_s`` and ``frames_per_s``
are the medians over 20 chunks of consecutively finished waves.

Worker processes are spawned in set-up; their detection store lives
under the benchmark's work directory and is removed in tear-down.
"""

from __future__ import annotations

import os
import shutil
import threading

import numpy as np

from perfbench.base import (
    BUDGET,
    MODEL_SEED,
    REFERENCE_SEED,
    Workload,
    cache_metrics,
    delta,
    op_span,
    ratio,
)
from perfbench.common import Window, answer_digest, median, now
from perfbench.corpora import corpus_specs, scoped_texts, shard_quality

CLIENTS = 2
WORKERS = 2
WAVE = 32
POOL = 24
#: Every this many waves a client checks each answer against the serial path.
CHECK_EVERY = 4
#: Chunks the window's rates are taken over.
CHUNKS = 20


class ServeWorkload(Workload):
    name = "serve"
    primary = "ops"

    def __init__(self, seed, workdir) -> None:
        super().__init__(seed, workdir)
        self._setups = 0
        self._windows = 0
        self._submitted = 0
        self.spawn_times: list[float] = []
        self.corpus = None
        self.service = None

    def setup(self) -> None:
        from repro.core import MASTConfig
        from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog
        from repro.models import pv_rcnn
        from repro.query.workload import generate_workload

        self.model = pv_rcnn(seed=MODEL_SEED)
        catalog = SequenceCatalog()
        for spec in corpus_specs(360, 240):
            catalog.register(spec)
        config = MASTConfig(budget_fraction=BUDGET, seed=REFERENCE_SEED)
        self.corpus = CorpusPipeline(catalog, config, policy="ucb").fit(self.model)
        self._setups += 1
        self.store_dir = self.workdir / f"serve-store-{os.getpid()}-{self._setups}"
        began = now()
        self.service = CorpusQueryService(
            self.corpus, backend="process", workers=WORKERS, store_dir=self.store_dir
        )
        self.spawn_times.append(now() - began)

        names = catalog.names()
        self.pool = scoped_texts(names, generate_workload(rng=REFERENCE_SEED).all_queries()[:POOL])
        self.reference = [answer_digest(self.corpus.query(text)) for text in self.pool]
        self.frames_of = [
            catalog.n_frames(text.rsplit(" ", 1)[-1]) if " IN SEQUENCE " in text
            else catalog.total_frames()
            for text in self.pool
        ]
        ranks = np.arange(POOL)
        self.popularity = 1.0 / (ranks + 1.5)
        self.popularity /= self.popularity.sum()
        # Warm the workers and check the pool once before any load.
        warmup = Window()
        self._check(self.service.execute_batch(self.pool), range(POOL), warmup)
        if warmup.failed:
            raise RuntimeError(f"pool check failed before load: {warmup.failures}")

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.corpus.close()
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.service = self.corpus = None

    def _check(self, answers, picks, window: Window) -> None:
        for j, answer in zip(picks, answers):
            if answer_digest(answer) != self.reference[j]:
                window.fail(1, f"pool answer differs from serial for {self.pool[j]}")

    def window(self, seconds, tracer) -> Window:
        from repro.serving.dispatcher import Overloaded

        self._windows += 1
        total = Window()
        #: (finish time, frames, latency) of every answered wave.
        finished: list[tuple[float, int, float]] = []
        lock = threading.Lock()
        start = now()
        stop = start + seconds

        def client(index: int) -> None:
            rng = np.random.default_rng([self.seed, 31, self._windows, index])
            local = Window()
            local_finished = []
            waves = 0
            while now() < stop:
                picks = rng.choice(POOL, size=WAVE, p=self.popularity)
                texts = [self.pool[j] for j in picks]
                local.attempted += WAVE
                waves += 1
                try:
                    with op_span(tracer, index * 1_000_000 + waves):
                        began = now()
                        answers = self.service.execute_batch(texts)
                        elapsed = now() - began
                except Overloaded as error:
                    local.fail(WAVE, f"wave refused: {error!r}")
                    continue
                except Exception as error:
                    local.fail(WAVE, f"wave failed: {error!r}")
                    continue
                frames = sum(self.frames_of[j] for j in picks)
                local_finished.append((began + elapsed, frames, elapsed))
                if waves % CHECK_EVERY == 0:
                    self._check(answers, picks, local)
            with lock:
                total.attempted += local.attempted
                finished.extend(local_finished)
                total.failed += local.failed
                total.failures += local.failures[:5]

        threads = [
            threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}")
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 60.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish its window")
        # Cut the answered waves, in the order they finished, into
        # CHUNKS runs of equal length; each run's rate is its waves over
        # the time from the end of the run before.
        if not finished:
            raise RuntimeError(f"no wave was answered: {total.failures}")
        finished.sort()
        chunks = min(CHUNKS, len(finished))
        cuts = [round(k * len(finished) / chunks) for k in range(chunks + 1)]
        previous = start
        for first, end in zip(cuts, cuts[1:]):
            chunk_s = finished[end - 1][0] - previous
            run = finished[first:end]
            frames = sum(wave_frames for _, wave_frames, _ in run)
            latencies = [latency for _, _, latency in run]
            total.chunk(WAVE * (end - first), chunk_s, frames, chunk_s, latencies)
            previous = finished[end - 1][0]
        self._submitted += total.attempted
        return total

    def verify(self, window) -> None:
        """After the load, the whole pool must still match the serial answers."""
        window.attempted += POOL
        self._check(self.service.execute_batch(self.pool), range(POOL), window)

    def quality(self, window) -> tuple[float, float]:
        catalog = self.corpus.catalog
        f1, error = shard_quality(
            {name: catalog.sequence(name) for name in catalog.names()},
            lambda name: self.corpus.shard(name).query,
            self.model,
        )
        return float(np.mean(f1)), float(np.mean(error))

    def model_invocations(self) -> float:
        from repro.utils.timing import STAGE_MODEL, CostLedger

        ledger = CostLedger()
        ledger.merge(self.corpus.ledger)
        for name in self.corpus.names:
            ledger.merge(self.corpus.shard(name).ledger)
        return ledger.invocations(STAGE_MODEL)

    def snapshot(self) -> dict[str, float]:
        counters = self.service.dispatcher.counters()
        state = {
            "coalesced": counters["coalesced"],
            "shed": counters["shed"],
            "dispatched_batches": counters["dispatched_batches"],
            "submitted": self._submitted,
        }
        for stats in self.service.worker_stats():
            for shard in stats.shards.values():
                for key in ("hits", "misses", "partial_hits", "invalidations"):
                    state[f"cache.{key}"] = state.get(f"cache.{key}", 0) + getattr(
                        shard.cache, key
                    )
                for key in ("query_cache_hits", "query_cache_misses"):
                    state[key] = state.get(key, 0) + getattr(shard, key)
        return state

    def layer_metrics(self, before, after) -> dict[str, float]:
        submitted = delta(before, after, "submitted")
        coalesced = delta(before, after, "coalesced")
        query_hits = delta(before, after, "query_cache_hits")
        query_lookups = query_hits + delta(before, after, "query_cache_misses")
        metrics = {
            "serving.dispatcher.coalesced": coalesced,
            "serving.dispatcher.shed": delta(before, after, "shed"),
            "serving.dispatcher.dispatched_batches": delta(before, after, "dispatched_batches"),
            "serving.dispatcher.queries_submitted": submitted,
            "serving.dispatcher.coalesce_ratio": ratio(coalesced, submitted),
            "serving.mp.spawn_s": median(self.spawn_times),
            "serving.mp.worker_query_cache_lookups": query_lookups,
            "serving.mp.worker_query_cache_hit_ratio": ratio(query_hits, query_lookups),
        }
        metrics.update(cache_metrics(before, after))
        return metrics

